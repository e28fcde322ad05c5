package seisgen

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mseed"
)

func TestWaveformDeterministic(t *testing.T) {
	cfg := WaveformConfig{NumSamples: 1000, Seed: 5}
	a := Waveform(cfg)
	b := Waveform(cfg)
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := Waveform(WaveformConfig{NumSamples: 1000, Seed: 6})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical waveforms")
	}
}

func TestWaveformEmpty(t *testing.T) {
	if Waveform(WaveformConfig{NumSamples: 0}) != nil {
		t.Error("zero samples should yield nil")
	}
	if Waveform(WaveformConfig{NumSamples: -5}) != nil {
		t.Error("negative samples should yield nil")
	}
}

func TestWaveformEventRaisesAmplitude(t *testing.T) {
	base := WaveformConfig{NumSamples: 4000, Seed: 9, NoiseAmp: 20}
	quiet := Waveform(base)
	withEvent := base
	withEvent.Events = []Event{{OnsetSample: 2000, Amplitude: 50000, DecaySamples: 300, PeriodSamples: 12}}
	loud := Waveform(withEvent)

	maxAbs := func(s []int32, from, to int) int32 {
		var m int32
		for _, v := range s[from:to] {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		return m
	}
	// Before the onset the series are identical.
	for i := 0; i < 2000; i++ {
		if quiet[i] != loud[i] {
			t.Fatalf("sample %d differs before onset", i)
		}
	}
	if q, l := maxAbs(quiet, 2000, 2600), maxAbs(loud, 2000, 2600); l < 10*q {
		t.Errorf("event amplitude %d not much larger than background %d", l, q)
	}
}

func TestGenerateRepositoryLayout(t *testing.T) {
	dir := t.TempDir()
	files, err := Generate(RepoConfig{Dir: dir, SamplesPerDay: 600, Days: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := len(DefaultStations) * len(DefaultChannels) * 2
	if len(files) != wantFiles {
		t.Fatalf("generated %d files, want %d", len(files), wantFiles)
	}
	cfg := RepoConfig{Days: 2}
	if cfg.NumFiles() != wantFiles {
		t.Errorf("NumFiles = %d, want %d", cfg.NumFiles(), wantFiles)
	}
	// Layout convention and readability of each file.
	for _, gf := range files {
		if _, err := os.Stat(gf.Path); err != nil {
			t.Fatalf("missing file: %v", err)
		}
		rel, err := filepath.Rel(dir, gf.Path)
		if err != nil {
			t.Fatal(err)
		}
		want := FilePath(gf.Station, gf.Channel, gf.Day)
		if rel != want {
			t.Errorf("path %q, want %q", rel, want)
		}
		infos, err := mseed.ScanFile(gf.Path)
		if err != nil {
			t.Fatalf("scan %s: %v", gf.Path, err)
		}
		var total int
		for _, ri := range infos {
			if ri.Header.Station != gf.Station.Code || ri.Header.Network != gf.Station.Network {
				t.Errorf("header codes %s, want %s.%s", ri.Header.SourceID(), gf.Station.Network, gf.Station.Code)
			}
			total += ri.Header.NumSamples
		}
		if total != 600 {
			t.Errorf("%s: %d samples, want 600", rel, total)
		}
	}
}

func TestGenerateDeterministicAcrossRuns(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	cfg := RepoConfig{SamplesPerDay: 400, Seed: 11, EventsPerDay: 2}
	cfg.Dir = d1
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Dir = d2
	files, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, gf := range files {
		rel, _ := filepath.Rel(d2, gf.Path)
		b1, err := os.ReadFile(filepath.Join(d1, rel))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(gf.Path)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("%s differs across identical-seed runs", rel)
		}
	}
}

func TestGenerateEventsRecorded(t *testing.T) {
	dir := t.TempDir()
	files, err := Generate(RepoConfig{
		Dir: dir, SamplesPerDay: 2000, EventsPerDay: 3, Seed: 1,
		Stations: []Station{{Network: "NL", Code: "HGN"}},
		Channels: []string{"BHZ"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(files[0].Events) != 3 {
		t.Fatalf("events manifest: %+v", files)
	}
	for _, ev := range files[0].Events {
		if ev.OnsetSample < 0 || ev.OnsetSample >= 2000 {
			t.Errorf("onset %d out of range", ev.OnsetSample)
		}
		if ev.Amplitude <= 0 {
			t.Errorf("amplitude %g", ev.Amplitude)
		}
	}
}

func TestGenerateStartDayAndEncoding(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2011, 7, 4, 0, 0, 0, 0, time.UTC)
	files, err := Generate(RepoConfig{
		Dir: dir, SamplesPerDay: 300, Seed: 2, StartDay: day,
		Stations: []Station{{Network: "GR", Code: "BFO"}},
		Channels: []string{"LHZ"},
		Encoding: mseed.EncodingInt32,
	})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := mseed.ScanFile(files[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	h := infos[0].Header
	if h.Encoding != mseed.EncodingInt32 {
		t.Errorf("encoding %v", h.Encoding)
	}
	if got := time.Unix(0, h.StartNanos()).UTC(); !got.Equal(day) {
		t.Errorf("start %v, want %v", got, day)
	}
	if filepath.Base(files[0].Path) != "GR.BFO..LHZ.2011.185.mseed" {
		t.Errorf("file name %s", filepath.Base(files[0].Path))
	}
}

// NumFiles reports how many files Generate will produce for the config.
func (c RepoConfig) NumFiles() int {
	c.fill()
	return len(c.Stations) * len(c.Channels) * c.Days
}
