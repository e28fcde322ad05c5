package exec

import "repro/internal/column"

// Global (ungrouped) aggregates fold through a fixed-shape reduction tree:
// the input row stream is cut into constant-size chunks, each chunk is
// folded serially in row order, and the chunk states are merged pairwise-
// adjacent. The chunk layout depends only on the input length — never on
// worker count, morsel size, or arrival batching — so float SUM/AVG
// produce identical bits from the batch fold (globalStates, the serial
// reference) and the pipeline's streaming fold (globalAgg). DISTINCT
// arguments are the exception: their dedup set must see the whole stream,
// so they fold in one continuous state in both forms.

// globalAggChunkRows is the fixed reduction-tree leaf size.
const globalAggChunkRows = 16384

// globalStates computes the single global group's states over rows [0, n)
// of args.
func globalStates(args []aggArg, n int) []aggState {
	naggs := len(args)
	if n <= globalAggChunkRows {
		// Single leaf: the tree degenerates to the plain serial fold,
		// preserving the historical result for small inputs.
		states := make([]aggState, naggs)
		for row := 0; row < n; row++ {
			updateAggStates(states, args, row)
		}
		return states
	}
	hasDistinct := false
	for i := range args {
		if args[i].distinct {
			hasDistinct = true
			break
		}
	}
	nchunks := (n + globalAggChunkRows - 1) / globalAggChunkRows
	chunks := make([][]aggState, nchunks)
	for c := range chunks {
		lo := c * globalAggChunkRows
		hi := lo + globalAggChunkRows
		if hi > n {
			hi = n
		}
		states := make([]aggState, naggs)
		for row := lo; row < hi; row++ {
			for i := range args {
				if args[i].distinct {
					continue
				}
				updateOneAgg(&states[i], &args[i], row)
			}
		}
		chunks[c] = states
	}
	merged := mergeGlobalTree(chunks, args)
	if hasDistinct {
		distinct := make([]aggState, naggs)
		for row := 0; row < n; row++ {
			for i := range args {
				if args[i].distinct {
					updateOneAgg(&distinct[i], &args[i], row)
				}
			}
		}
		for i := range args {
			if args[i].distinct {
				merged[i] = distinct[i]
			}
		}
	}
	return merged
}

// mergeGlobalTree reduces chunk states pairwise-adjacent until one state
// vector remains — the same fixed tree shape regardless of who computed
// the leaves.
func mergeGlobalTree(chunks [][]aggState, args []aggArg) []aggState {
	for len(chunks) > 1 {
		half := (len(chunks) + 1) / 2
		next := make([][]aggState, half)
		for i := 0; i < half; i++ {
			if 2*i+1 < len(chunks) {
				mergeAggStates(chunks[2*i], chunks[2*i+1], args)
			}
			next[i] = chunks[2*i]
		}
		chunks = next
	}
	return chunks[0]
}

// mergeAggStates folds src's states into dst's (dst is the earlier chunk).
func mergeAggStates(dst, src []aggState, args []aggArg) {
	for i := range args {
		mergeOneAgg(&dst[i], &src[i], &args[i])
	}
}

// mergeOneAgg combines two chunk states of one non-DISTINCT aggregate.
// Sums add; min/max fold left-to-right with the same comparison kernels as
// the row fold (in particular, NaN never displaces an established bound).
func mergeOneAgg(dst, src *aggState, a *aggArg) {
	dst.count += src.count
	dst.sum += src.sum
	dst.intSum += src.intSum
	if !src.any {
		return
	}
	if !dst.any {
		dst.minF, dst.maxF = src.minF, src.maxF
		dst.minS, dst.maxS = src.minS, src.maxS
		dst.minI, dst.maxI = src.minI, src.maxI
		dst.any = true
		return
	}
	switch a.typ {
	case column.Float64:
		if src.minF < dst.minF {
			dst.minF = src.minF
		}
		if src.maxF > dst.maxF {
			dst.maxF = src.maxF
		}
	case column.String:
		if src.minS < dst.minS {
			dst.minS = src.minS
		}
		if src.maxS > dst.maxS {
			dst.maxS = src.maxS
		}
	default:
		if src.minI < dst.minI {
			dst.minI = src.minI
		}
		if src.maxI > dst.maxI {
			dst.maxI = src.maxI
		}
	}
}

// globalAgg is the streaming form of globalStates for AggSink: rows arrive one at a time (in source order), chunks seal at the
// same fixed boundaries, and finish() runs the same merge tree — so the
// result is bit-identical to the batch fold over the same row stream.
type globalAgg struct {
	args     []aggArg
	distinct []aggState // continuous serial fold, DISTINCT args only
	anyDist  bool
	cur      []aggState
	curRows  int
	chunks   [][]aggState
	total    int
}

func newGlobalAgg(args []aggArg) *globalAgg {
	g := &globalAgg{args: args, cur: make([]aggState, len(args))}
	for i := range args {
		if args[i].distinct {
			g.anyDist = true
			g.distinct = make([]aggState, len(args))
			break
		}
	}
	return g
}

// add folds one row. The args slice is the caller's per-morsel evaluation;
// row indexes into it.
func (g *globalAgg) add(args []aggArg, row int) {
	for i := range args {
		if args[i].distinct {
			updateOneAgg(&g.distinct[i], &args[i], row)
			continue
		}
		updateOneAgg(&g.cur[i], &args[i], row)
	}
	g.total++
	g.curRows++
	if g.curRows == globalAggChunkRows {
		g.chunks = append(g.chunks, g.cur)
		g.cur = make([]aggState, len(g.args))
		g.curRows = 0
	}
}

// finish seals the partial chunk, merges the tree, and overlays the
// DISTINCT states.
func (g *globalAgg) finish() []aggState {
	if g.curRows > 0 || len(g.chunks) == 0 {
		g.chunks = append(g.chunks, g.cur)
	}
	merged := mergeGlobalTree(g.chunks, g.args)
	if g.anyDist {
		for i := range g.args {
			if g.args[i].distinct {
				merged[i] = g.distinct[i]
			}
		}
	}
	return merged
}
