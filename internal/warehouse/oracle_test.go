package warehouse

import "repro/internal/reference"

// noPipeline runs every query on the operator-at-a-time reference (package
// reference) instead of the push pipelines.
const noPipeline = noTrace << 1

// openOracle opens a warehouse as Open does, with the oracle switches o
// set: the one way to build an oracle warehouse.
func openOracle(dir string, opts Options, o oracle) (*Warehouse, error) {
	w, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	w.oracle = o
	if o&noPipeline != 0 {
		w.run = reference.Execute
	}
	return w, nil
}
