package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/mseed"
	"repro/internal/seisgen"
)

// recData is one record of a decoded file: the oracle's copy of what the
// daemon sees as a row of mseed.records plus its slice of samples.
type recData struct {
	seqno   int
	startNs int64
	rate    float64
	first   int // index of the record's first sample in fileData.samples
	n       int
}

// sampleTime mirrors the engine's record-level transformation: mSEED
// stores no per-sample times, they derive from the record start and rate.
func (r recData) sampleTime(i int) int64 {
	return r.startNs + int64(float64(i)/r.rate*1e9)
}

// fileData is the oracle's decoded copy of one file-day.
type fileData struct {
	uri     string // repository-relative, forward slashes
	station seisgen.Station
	channel string
	day     time.Time
	size    int64
	records []recData
	samples []int32
}

// fixture is one generated repository plus everything the driver knows
// about it. The daemon only ever sees the files under dir.
type fixture struct {
	cfg     fixtureCfg
	dir     string // the fleet
	day0Dir string // copy of the fleet's first day, for eager cold starts
	poolDir string // file-days refresh_mix adds to the fleet one by one
	files   []*fileData
	pool    []*fileData
	series  map[string][]*fileData // "STA/CHAN" -> file-days in day order (fleet, then added pool files)

	repoBytes  int64
	records    int
	samples    int64
	minRecords int      // smallest record count of any fleet file
	cached     []string // warm_serve's fixed dashboard statements
}

func seriesKey(station, channel string) string { return station + "/" + channel }

// warm returns the warm-set stations.
func (fx *fixture) warm() []seisgen.Station { return fx.cfg.stations[:fx.cfg.warmStations] }

// span is the time covered by one file-day.
func (fx *fixture) span() time.Duration {
	return time.Duration(float64(fx.cfg.samplesPerDay) / sampleRate * float64(time.Second))
}

// eachOf runs f(0..n-1) on `connections` goroutines and returns the first
// error in index order.
func eachOf(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, connections)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// generate writes the stations' file-days under dir, one seisgen call per
// station (seisgen seeds every series from its identity, so the split does
// not change a byte).
func generate(dir string, stations []seisgen.Station, channels []string, first time.Time, days, samplesPerDay int, seed int64) ([]seisgen.GeneratedFile, error) {
	out := make([][]seisgen.GeneratedFile, len(stations))
	err := eachOf(len(stations), func(i int) (err error) {
		out[i], err = seisgen.Generate(seisgen.RepoConfig{
			Dir: dir, Stations: stations[i : i+1], Channels: channels,
			Days: days, StartDay: first, SamplesPerDay: samplesPerDay,
			SampleRate: sampleRate, Encoding: mseed.EncodingSteim2,
			RecordLength: recordLength, EventsPerDay: eventsPerDay, Seed: seed,
		})
		return err
	})
	var all []seisgen.GeneratedFile
	for _, o := range out {
		all = append(all, o...)
	}
	return all, err
}

// decode reads the generated files back with mseed.ReadFile: the oracle's
// own copy of the samples, independent of the warehouse.
func decode(root string, gen []seisgen.GeneratedFile) ([]*fileData, error) {
	out := make([]*fileData, len(gen))
	err := eachOf(len(gen), func(i int) (err error) {
		out[i], err = decodeFile(root, gen[i])
		return err
	})
	return out, err
}

func decodeFile(root string, g seisgen.GeneratedFile) (*fileData, error) {
	recs, err := mseed.ReadFile(g.Path)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, g.Path)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(g.Path)
	if err != nil {
		return nil, err
	}
	fd := &fileData{
		uri: filepath.ToSlash(rel), station: g.Station, channel: g.Channel,
		day: g.Day, size: st.Size(), samples: make([]int32, 0, g.Samples),
	}
	for _, r := range recs {
		fd.records = append(fd.records, recData{
			seqno: r.Header.SeqNo, startNs: r.Header.StartNanos(),
			rate: r.Header.SampleRate(), first: len(fd.samples), n: len(r.Samples),
		})
		fd.samples = append(fd.samples, r.Samples...)
	}
	if len(fd.samples) != g.Samples {
		return nil, fmt.Errorf("oracle: %s decodes to %d samples, generated %d", g.Path, len(fd.samples), g.Samples)
	}
	return fd, nil
}

// buildFixture generates the fleet, the day-0 slice and the pool under
// dir (which it empties first) and decodes the oracle's copy.
func buildFixture(dir string, cfg fixtureCfg, seed int64) (*fixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	fx := &fixture{
		cfg: cfg, dir: filepath.Join(dir, "fleet"), day0Dir: filepath.Join(dir, "day0"),
		poolDir: filepath.Join(dir, "pool"), series: make(map[string][]*fileData),
	}
	gen, err := generate(fx.dir, cfg.stations, cfg.channels, startDay, cfg.days, cfg.samplesPerDay, seed)
	if err != nil {
		return nil, fmt.Errorf("generate fleet: %w", err)
	}
	if fx.files, err = decode(fx.dir, gen); err != nil {
		return nil, err
	}
	fx.minRecords = len(fx.files[0].records)
	for _, fd := range fx.files {
		fx.addSeries(fd)
		fx.repoBytes += fd.size
		fx.records += len(fd.records)
		fx.samples += int64(len(fd.samples))
		fx.minRecords = min(fx.minRecords, len(fd.records))
		if fd.day.Equal(startDay) {
			if err := copyFile(filepath.Join(fx.dir, fd.uri), filepath.Join(fx.day0Dir, fd.uri)); err != nil {
				return nil, err
			}
		}
	}
	fx.cached = cachedSQL(fx.warm())
	if cfg.poolDays > 0 {
		pgen, err := generate(fx.poolDir, fx.warm(), []string{"BHZ"}, startDay.AddDate(0, 0, cfg.days), cfg.poolDays, cfg.samplesPerDay, seed+1)
		if err != nil {
			return nil, fmt.Errorf("generate pool: %w", err)
		}
		if fx.pool, err = decode(fx.poolDir, pgen); err != nil {
			return nil, err
		}
		// Day-major order, so successive additions go to different stations.
		sort.SliceStable(fx.pool, func(i, j int) bool { return fx.pool[i].day.Before(fx.pool[j].day) })
	}
	return fx, nil
}

func (fx *fixture) addSeries(fd *fileData) {
	k := seriesKey(fd.station.Code, fd.channel)
	fx.series[k] = append(fx.series[k], fd)
}

// addPoolFile copies pool file-day i into the fleet (refresh_mix) and makes
// it visible to the oracle.
func (fx *fixture) addPoolFile(i int) (*fileData, error) {
	fd := fx.pool[i]
	if err := copyFile(filepath.Join(fx.poolDir, fd.uri), filepath.Join(fx.dir, fd.uri)); err != nil {
		return nil, err
	}
	fx.addSeries(fd)
	return fd, nil
}

func copyFile(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// buildDaemon compiles cmd/lazyetld from the checkout's source into the
// benchmark's build directory. With a warm build cache this is a
// staleness check.
func (e *env) buildDaemon() error {
	cmd := exec.Command("go", "build", "-o", e.daemonBin, "./cmd/lazyetld")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lazyetld: %v\n%s", err, out)
	}
	return nil
}

// setUp builds the fixture and the daemon cfg.setupRepeats times — always
// the same work, nothing reused from an earlier invocation — keeps the
// last build and returns the median wall time in seconds. It is not
// speed-normalised: two generator goroutines and the Go linker disturb the
// speedometer's kernel more than the neighbours do (the memory phase read
// 1.0-1.7 times its quiet time over set-ups that themselves took 0.9-1.1 s).
func (e *env) setUp(cfg fixtureCfg, seed int64) (*fixture, float64, error) {
	var fx *fixture
	var times []float64
	for i := 0; i < cfg.setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if fx, err = buildFixture(filepath.Join(e.work, "fixture"), cfg, seed); err != nil {
			return nil, 0, err
		}
		if err := e.buildDaemon(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fx, median(times), nil
}
