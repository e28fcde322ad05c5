// Package reference is the operator-at-a-time engine the push pipelines are
// tested against: every operator consumes a fully materialized input batch
// and produces one, with the whole-batch kernels of package exec (Filter,
// HashJoinMem, Aggregate, Project, Sort, Limit). It shares those kernels and
// the extraction driver with production, but never the morsel driver it
// checks: it drains the extraction stream into one flat batch at full width
// and with no sample window (plan.ExtractAll) before any operator sees a
// row, and it cuts no record — a lifted sample window is kept sample by
// sample, as the Filter it came from did.
//
// Only tests import this package; the production binary has one engine,
// plan.Execute. The reference records no spans, stats or operator events;
// the extraction source still reports what it opens and reads to Env.Obs.
package reference

import (
	"context"
	"fmt"

	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/plan"
)

// Execute runs the plan operator at a time and returns the result batch. It
// reads env.Store, env.Source, env.Obs, env.Pool (the join build's width,
// nil = serial), env.Mem and env.NoSkipping, which drops every LazyExtract's
// zone-map prune test.
func Execute(n plan.Node, env *plan.Env) (*column.Batch, error) {
	switch x := n.(type) {
	case *plan.Scan:
		b, err := env.Store.Table(x.Table)
		if err != nil {
			return nil, err
		}
		if x.Prefix != "" {
			cols := make([]*column.Column, b.NumCols())
			for i := range cols {
				c := b.ColAt(i)
				cols[i] = c.WithName(x.Prefix + c.Name())
			}
			if b, err = column.NewBatch(cols...); err != nil {
				return nil, err
			}
		}
		if b, err = exec.Filter(b, x.Preds); err != nil {
			return nil, fmt.Errorf("plan: scan %s: %w", x.Table, err)
		}
		return b, nil

	case *plan.Join:
		l, err := Execute(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Execute(x.R, env)
		if err != nil {
			return nil, err
		}
		out, _, err := env.Pool.HashJoinMem(env.Mem, l, r, x.LKeys, x.RKeys)
		return out, err

	case *plan.Filter:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		return exec.Filter(in, x.Preds)

	case *plan.LazyExtract:
		meta, err := Execute(x.Meta, env)
		if err != nil {
			return nil, err
		}
		if env.Source == nil {
			return nil, fmt.Errorf("plan: LazyExtract requires an ExtractSource in the environment")
		}
		prune := x.Prune
		if env.NoSkipping {
			prune = nil
		}
		o := env.Obs
		if o == nil {
			o = plan.NopObserver{}
		}
		out, err := plan.ExtractAll(env.Source, meta, nil, prune, o, env.Pool.Workers())
		if err != nil || x.Window == nil {
			return out, err
		}
		return exec.Filter(out, x.Window.Preds)

	case *plan.Aggregate:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		return exec.Aggregate(in, x.GroupBy, x.Aggs)

	case *plan.Project:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		return exec.Project(in, x.Exprs, x.Names)

	case *plan.Sort:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		out, _, err := exec.Sort(context.Background(), in, x.Keys)
		return out, err

	case *plan.Limit:
		in, err := Execute(x.Child, env)
		if err != nil {
			return nil, err
		}
		return exec.Limit(in, x.N), nil

	default:
		return nil, fmt.Errorf("reference: unknown node %T", n)
	}
}
