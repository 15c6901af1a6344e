package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// spotCells is how many cells of a later grid job are recomputed.
const spotCells = 12

// decodeDoc parses a result document (the aggregate event's payload).
func decodeDoc(doc []byte) (*serve.Report, error) {
	var rep serve.Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		return nil, fmt.Errorf("decoding document: %w", err)
	}
	if rep.Sweep == nil {
		return nil, fmt.Errorf("document has no sweep record")
	}
	return &rep, nil
}

// canonical re-encodes a report with the two documented nondeterministic
// fields (seconds, updates_per_sec) zeroed: equal canonical bytes mean
// equal documents modulo timing.
func canonical(rep *serve.Report) ([]byte, error) {
	c := *rep
	sw := *rep.Sweep
	sw.Seconds = 0
	sw.Results = append(sw.Results[:0:0], sw.Results...)
	for i := range sw.Results {
		sw.Results[i].Seconds = 0
		sw.Results[i].UpdatesPerSec = 0
	}
	c.Sweep = &sw
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkCells applies the per-cell rules every document must pass: one
// result per grid cell in index order and no cell error; hogwild cells,
// which have no reference to compare with, must also not diverge, must
// run the full iteration budget and must keep observed staleness within
// the cell's gate τ.
func checkCells(rep *serve.Report, req serve.SweepRequest) error {
	norm, err := req.Normalized()
	if err != nil {
		return err
	}
	want := gridCells(norm)
	if rep.Sweep.Cells != want || len(rep.Sweep.Results) != want {
		return fmt.Errorf("document has %d cells (%d results), want %d",
			rep.Sweep.Cells, len(rep.Sweep.Results), want)
	}
	for i, r := range rep.Sweep.Results {
		switch {
		case r.Index != i:
			return fmt.Errorf("result %d carries index %d", i, r.Index)
		case r.Err != "":
			return fmt.Errorf("cell %d: %s", i, r.Err)
		case r.Runtime != "hogwild":
			// Machine cells are checked against a reference document.
		case r.Diverged:
			return fmt.Errorf("cell %d diverged", i)
		case r.Iters != norm.Iters:
			return fmt.Errorf("cell %d ran %d iterations, want %d", i, r.Iters, norm.Iters)
		case r.MaxStaleness < 0 || r.MaxStaleness > r.Tau:
			return fmt.Errorf("cell %d: max staleness %d outside [0, τ=%d]", i, r.MaxStaleness, r.Tau)
		}
	}
	return nil
}

// gridCells is the cell count of a normalized request, from its axes
// (SweepRequest.CellCount would rebuild the α probe's oracles).
func gridCells(norm serve.SweepRequest) int {
	n := len(norm.Taus) * len(norm.Workers) * len(norm.Sparsity) * norm.Replicates *
		len(norm.Faults) * len(norm.Byzantine) * len(norm.Defenses)
	if norm.Runtime == "both" {
		n *= 2
	}
	return n
}

// sameDoc reports whether two documents agree modulo timing.
func sameDoc(a, b *serve.Report) error {
	ca, err := canonical(a)
	if err != nil {
		return err
	}
	cb, err := canonical(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ca, cb) {
		return fmt.Errorf("document differs from its reference beyond the timing fields")
	}
	return nil
}

// spotCheck verifies a machine grid job without recomputing all of it:
// a seeded sample of its cells is rerun through the executor path this
// run did not use and must match bit for bit, and the document must
// equal the one AssembleReport builds from its own cells.
func (st *runState) spotCheck(i int, rep *serve.Report, norm serve.SweepRequest) error {
	specs, err := norm.Specs()
	if err != nil {
		return err
	}
	if len(specs) != 1 {
		return fmt.Errorf("spot check needs a single-runtime request, got %d legs", len(specs))
	}
	spec := specs[0]
	if st.tr == nil {
		(&cellTimes{}).instrument(&spec)
	}
	r := rng.NewStream(st.o.seed, spotStream+uint64(i))
	idx := r.Perm(len(rep.Sweep.Results))[:min(spotCells, len(rep.Sweep.Results))]
	sort.Ints(idx)
	got, err := sweep.RunSubset(context.Background(), spec, idx)
	if err != nil {
		return fmt.Errorf("spot check: %w", err)
	}
	for k, g := range got {
		a, err := cellBytes(g)
		if err != nil {
			return err
		}
		b, err := cellBytes(rep.Sweep.Results[idx[k]])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("cell %d differs from its recomputation beyond the timing fields", idx[k])
		}
	}
	names := strings.Split(rep.Sweep.Name, "+")
	return sameDoc(rep, serve.AssembleReport(norm, names, rep.Sweep.Results, 0))
}

// cellBytes encodes a cell result with its timing fields zeroed.
func cellBytes(r sweep.CellResult) ([]byte, error) {
	r.Seconds, r.UpdatesPerSec = 0, 0
	return json.Marshal(r)
}
