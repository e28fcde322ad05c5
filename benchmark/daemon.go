package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env owns everything an invocation leaves behind: the work directory
// (fixtures, daemon logs, spill dirs) and the daemon processes. cleanup
// runs on every exit path, SIGINT and SIGTERM included.
type env struct {
	root      string // the checkout (module root)
	build     string // build outputs and scratch: <root>/.bench_build
	work      string // per-invocation scratch, removed on exit
	daemonBin string
	speed     *speedometer // runs for the whole invocation

	mu       sync.Mutex
	daemons  map[*daemon]struct{}
	nlogs    int
	stopping bool // cleanup has begun: no further daemon may start
}

// newEnv creates the per-invocation work directory under build
// (<root>/.bench_build outside tests).
func newEnv(root, build string) (*env, error) {
	work := filepath.Join(build, "work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &env{root: root, build: build, work: work, daemonBin: filepath.Join(build, "bin", "lazyetld"),
		speed: startSpeedometer(), daemons: map[*daemon]struct{}{}}, nil
}

// cleanupOnSignal makes SIGINT and SIGTERM an exit path like any other:
// daemons killed and waited for, work directory removed.
func (e *env) cleanupOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
}

// cleanup kills every live daemon, waits for it, and removes the work dir.
// Once it has begun startDaemon refuses, so a workload still running beside
// the signal handler cannot leave a daemon behind. Safe to call twice.
func (e *env) cleanup() {
	e.mu.Lock()
	if !e.stopping {
		e.speed.halt()
	}
	e.stopping = true
	live := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		live = append(live, d)
	}
	e.mu.Unlock()
	for _, d := range live {
		d.stop()
	}
	os.RemoveAll(e.work)
}

// daemon is one spawned lazyetld process.
type daemon struct {
	e     *env
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	log   *os.File
	ready time.Duration // spawn -> first 200 from /readyz
	spawn time.Time

	exited   chan struct{} // closed once the process has been reaped
	stopOnce sync.Once
	cpu      time.Duration // utime+stime at exit, from wait4
}

// freePort picks an unused loopback port below the kernel's ephemeral
// range (32768-60999 by default). A port from that range could be taken as
// the source port of one of the driver's own connections between the probe
// and the daemon's bind — the 1 ms /readyz polling makes thousands of them.
func freePort() (int, error) {
	for try := 0; try < 100; try++ {
		port := 20000 + rand.Intn(10000)
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			l.Close()
			return port, nil
		}
	}
	return 0, errors.New("no free loopback port in 20000-29999")
}

var errStopping = errors.New("the benchmark is shutting down")

// startDaemon spawns lazyetld over repo on an ephemeral loopback port and
// polls /readyz every readyPoll until it answers 200. A daemon that is not
// ready within readyTimeout (or exits first) fails the run; its output is
// in the work dir either way.
func (e *env) startDaemon(hc *http.Client, repo string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.stopping {
		e.mu.Unlock()
		return nil, errStopping
	}
	e.nlogs++
	logPath := filepath.Join(e.work, fmt.Sprintf("lazyetld-%d.log", e.nlogs))
	e.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{e: e, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	d.cmd = exec.Command(e.daemonBin, append([]string{"-repo", repo, "-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// Spill files (per-query temp dirs) stay inside the checkout.
	d.cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	e.mu.Lock()
	err = errStopping
	if !e.stopping { // checked again under the lock that registers the daemon
		d.spawn = time.Now()
		if err = d.cmd.Start(); err == nil {
			e.daemons[d] = struct{}{}
		}
	}
	e.mu.Unlock()
	if err != nil {
		logf.Close()
		return nil, err
	}

	go func() {
		// Reap in the background so an early exit is seen at once; stop()
		// waits on this same channel.
		d.cmd.Wait()
		close(d.exited)
	}()

	deadline := d.spawn.Add(readyTimeout)
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(d.spawn)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("lazyetld exited before it was ready: %s", tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("lazyetld not ready after %v: %s", readyTimeout, tail(logPath))
		}
		time.Sleep(readyPoll)
	}
}

// stop kills the daemon, waits until it has ended and records its CPU
// time. Safe to call more than once and from the signal handler.
func (d *daemon) stop() time.Duration {
	d.stopOnce.Do(func() {
		d.cmd.Process.Kill()
		<-d.exited
		if ps := d.cmd.ProcessState; ps != nil {
			d.cpu = ps.UserTime() + ps.SystemTime()
		}
		d.log.Close()
		d.e.mu.Lock()
		delete(d.e.daemons, d)
		d.e.mu.Unlock()
	})
	return d.cpu
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	b = bytes.TrimSpace(b)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return string(b)
}

// procCPU reads utime+stime of a live process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the last ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procRSSPeakMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func procRSSPeakMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }
