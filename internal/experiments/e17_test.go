package experiments

import (
	"math"
	"testing"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/sweep"
)

// TestE17PhaseDiagramBoundsHold: the quick-scale phase diagram must
// produce all three tables with every gated cell inside its bound
// (holdsAllYes scans the bound_holds columns).
func TestE17PhaseDiagramBoundsHold(t *testing.T) {
	tables, err := E17PhaseDiagram(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables, want 3 (machine, hogwild, marginals)", len(tables))
	}
	holdsAllYes(t, tables)
	for _, tbl := range tables[:2] {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.Title)
		}
	}
}

// TestPhaseDiagramSpecShape: the spec builder produces the declared grid
// and rejects empty axes.
func TestPhaseDiagramSpecShape(t *testing.T) {
	spec, err := PhaseDiagramSpec(PhaseOpts{
		Runtimes:   []sweep.Runtime{sweep.Machine},
		Taus:       []int{1, 2},
		Workers:    []int{2, 3},
		Keeps:      []float64{0.2, 0.5},
		Dim:        16,
		Replicates: 3,
		Iters:      50,
		Seed:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 3; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	if len(spec.Alphas) != 1 || spec.Alphas[0] <= 0 {
		t.Fatalf("derived alpha axis %v", spec.Alphas)
	}
	if _, err := PhaseDiagramSpec(PhaseOpts{Runtimes: []sweep.Runtime{sweep.Machine}}); err == nil {
		t.Error("empty axes accepted")
	}
}

// TestProbeLMatchesOracleConstants: the α probe's L, read from the
// dataset, carries the bits of the oracle's Constants().L.
func TestProbeLMatchesOracleConstants(t *testing.T) {
	for _, keep := range []float64{0.15, 0.3, 0.6} {
		ds, sls, err := phaseInstance(keep, 24, rng.New(uint64(1000*keep)))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ds.MaxRowNorm2Sq(), sls.Constants().L; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("keep=%g: dataset L = %v, oracle L = %v", keep, got, want)
		}
	}
}
