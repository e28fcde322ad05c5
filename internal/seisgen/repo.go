package seisgen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mseed"
)

// Station is one synthetic seismograph station.
type Station struct {
	Network string
	Code    string
}

// DefaultStations mirrors the paper's demo setting: Dutch (NL) stations of
// the KNMI network plus the Kandilli Observatory station in Istanbul (ISK)
// that the Figure 1 queries reference.
var DefaultStations = []Station{
	{Network: "NL", Code: "HGN"},
	{Network: "NL", Code: "DBN"},
	{Network: "NL", Code: "WIT"},
	{Network: "NL", Code: "ROLD"},
	{Network: "KO", Code: "ISK"},
}

// DefaultChannels are broadband high-gain channels: vertical, north-south
// and east-west components.
var DefaultChannels = []string{"BHZ", "BHN", "BHE"}

// RepoConfig describes a synthetic mSEED repository: one file per
// (station, channel, day), as real data centers organize their archives.
type RepoConfig struct {
	Dir      string
	Stations []Station // defaults to DefaultStations
	Channels []string  // defaults to DefaultChannels
	Days     int       // number of consecutive days, default 1
	// StartDay is the first day of data; defaults to 2010-01-12 (the day
	// used by the paper's Figure 1 queries).
	StartDay time.Time
	// SamplesPerDay per series; default 20000. Real BHZ channels run at
	// 40 Hz for 3.456M samples/day; tests and demos use smaller series.
	SamplesPerDay int
	SampleRate    float64        // default 40 Hz
	Encoding      mseed.Encoding // default Steim2
	RecordLength  int            // default 512
	// EventsPerDay injects this many seismic events per series-day at
	// deterministic pseudo-random onsets. Default 0; the fraction of
	// event-bearing series is what STA/LTA hunts for.
	EventsPerDay int
	// GapsPerDay punches this many recording gaps into each series-day
	// (telemetry dropouts are ubiquitous in real archives). Each gap
	// removes a random 2-10% chunk of the day's samples; the file's
	// records stay time-ordered with a hole between segments.
	GapsPerDay int
	Seed       int64
}

func (c *RepoConfig) fill() {
	if len(c.Stations) == 0 {
		c.Stations = DefaultStations
	}
	if len(c.Channels) == 0 {
		c.Channels = DefaultChannels
	}
	if c.Days == 0 {
		c.Days = 1
	}
	if c.StartDay.IsZero() {
		c.StartDay = time.Date(2010, 1, 12, 0, 0, 0, 0, time.UTC)
	}
	if c.SamplesPerDay == 0 {
		c.SamplesPerDay = 20000
	}
	if c.SampleRate == 0 {
		c.SampleRate = 40
	}
	if c.Encoding == mseed.EncodingASCII {
		c.Encoding = mseed.EncodingSteim2
	}
	if c.RecordLength == 0 {
		c.RecordLength = 512
	}
}

// GeneratedFile describes one file written by Generate.
type GeneratedFile struct {
	Path    string
	Station Station
	Channel string
	Day     time.Time
	Events  []Event // events injected into this series
	Samples int
}

// FilePath returns the repository-relative path for a series-day, following
// the NET/STA/CHAN/NET.STA.LOC.CHAN.YEAR.DOY.mseed convention of real
// seismic archives.
func FilePath(st Station, channel string, day time.Time) string {
	return filepath.Join(st.Network, st.Code, channel,
		fmt.Sprintf("%s.%s..%s.%04d.%03d.mseed",
			st.Network, st.Code, channel, day.Year(), day.YearDay()))
}

// Generate writes the repository to cfg.Dir and returns a manifest of the
// files created. Generation is deterministic in cfg.Seed.
func Generate(cfg RepoConfig) ([]GeneratedFile, error) {
	cfg.fill()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	var out []GeneratedFile
	for _, st := range cfg.Stations {
		for _, ch := range cfg.Channels {
			for d := 0; d < cfg.Days; d++ {
				day := cfg.StartDay.AddDate(0, 0, d)
				seed := seedFor(cfg.Seed, st.Network, st.Code, ch, d)
				evRng := rand.New(rand.NewSource(seed + 1))
				var events []Event
				for e := 0; e < cfg.EventsPerDay; e++ {
					events = append(events, Event{
						OnsetSample:   evRng.Intn(cfg.SamplesPerDay * 9 / 10),
						Amplitude:     3000 + evRng.Float64()*20000,
						DecaySamples:  100 + evRng.Float64()*400,
						PeriodSamples: 6 + evRng.Float64()*20,
					})
				}
				samples := Waveform(WaveformConfig{
					NumSamples: cfg.SamplesPerDay,
					NoiseAmp:   40,
					DriftAmp:   200,
					Events:     events,
					Seed:       seed,
				})
				path := filepath.Join(cfg.Dir, FilePath(st, ch, day))
				opts := mseed.SeriesOptions{
					Network:      st.Network,
					Station:      st.Code,
					Channel:      ch,
					SampleRate:   cfg.SampleRate,
					Encoding:     cfg.Encoding,
					RecordLength: cfg.RecordLength,
				}
				written, err := writeWithGaps(path, opts, day, samples, cfg.GapsPerDay, cfg.SampleRate, evRng)
				if err != nil {
					return nil, fmt.Errorf("seisgen: %s: %w", path, err)
				}
				out = append(out, GeneratedFile{
					Path: path, Station: st, Channel: ch, Day: day,
					Events: events, Samples: written,
				})
			}
		}
	}
	return out, nil
}

// writeWithGaps writes a day's series to path, optionally punching gaps:
// the sample array is split into segments with chunks dropped between
// them; segments append to the same file with continuous record sequence
// numbers and time-correct segment start times. Returns the number of
// samples actually written.
func writeWithGaps(path string, opts mseed.SeriesOptions, day time.Time, samples []int32, gaps int, rate float64, rng *rand.Rand) (int, error) {
	if gaps <= 0 || len(samples) < 100 {
		n := len(samples)
		if _, err := mseed.WriteSeriesFile(path, opts, day, samples); err != nil {
			return 0, err
		}
		return n, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	// Choose gap positions (as sample offsets) and sizes (2-10% of day),
	// sorted by position.
	gs := make([]seriesGap, gaps)
	for i := range gs {
		gs[i] = seriesGap{
			at:   rng.Intn(len(samples) * 8 / 10),
			size: len(samples)/50 + rng.Intn(len(samples)/12),
		}
	}
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j].at < gs[j-1].at; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}

	written := 0
	seq := 1
	cursor := 0
	flush := func(from, to int) error {
		if from >= to {
			return nil
		}
		o := opts
		o.StartSeq = seq
		start := day.Add(time.Duration(float64(from) / rate * float64(time.Second)))
		n, err := mseed.WriteSeries(f, o, start, samples[from:to])
		if err != nil {
			return err
		}
		seq += n
		written += to - from
		return nil
	}
	for _, g := range gs {
		if g.at <= cursor {
			continue // overlapping gaps merge
		}
		if err := flush(cursor, g.at); err != nil {
			return written, err
		}
		cursor = g.at + g.size
	}
	if cursor < len(samples) {
		if err := flush(cursor, len(samples)); err != nil {
			return written, err
		}
	}
	return written, nil
}

// seriesGap is a dropped chunk: `size` samples missing from offset `at`.
type seriesGap struct{ at, size int }
