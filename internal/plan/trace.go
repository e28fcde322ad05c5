package plan

import (
	"time"

	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/obs"
)

// timedStage wraps a pipeline stage so each Process call's duration is
// accumulated into a trace span. Stage work runs on pool workers, so the
// span's time is cumulative across workers (Add-style), not wall time.
type timedStage struct {
	inner exec.PipeStage
	sp    *obs.Span
}

func (t *timedStage) Label() string { return t.inner.Label() }

func (t *timedStage) Process(m exec.Morsel) (exec.Morsel, error) {
	t0 := time.Now()
	out, err := t.inner.Process(m)
	t.sp.Add(time.Since(t0))
	return out, err
}

func (t *timedStage) Rows() (int64, int64) { return t.inner.Rows() }

// timedSink wraps a pipeline sink the same way, and counts the rows it was
// handed: the span covers every Consume and the Finish that builds the
// output, so the sink's whole cost lands on it.
type timedSink struct {
	inner exec.PipeSink
	sp    *obs.Span
}

func (t *timedSink) Consume(m exec.Morsel) error {
	t0 := time.Now()
	err := t.inner.Consume(m)
	t.sp.Add(time.Since(t0))
	t.sp.AddRows(int64(m.Rows()))
	return err
}

func (t *timedSink) Finish() (*column.Batch, error) {
	t0 := time.Now()
	defer func() { t.sp.Add(time.Since(t0)) }()
	return t.inner.Finish()
}
