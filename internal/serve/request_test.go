package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asyncsgd/internal/sweep"
)

// tinyRequest is the standard small deterministic test spec: a 2-cell
// machine grid that runs in milliseconds.
func tinyRequest(seed uint64) SweepRequest {
	adv := 8
	return SweepRequest{
		Taus:       []int{2},
		Workers:    []int{2},
		Sparsity:   []float64{0.4},
		Dim:        8,
		Replicates: 2,
		Iters:      40,
		Seed:       &seed,
		Adversary:  &adv,
		Runtime:    "machine",
	}
}

func TestRequestDefaults(t *testing.T) {
	norm, err := SweepRequest{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Dim != DefaultDim || norm.Replicates != DefaultReplicates ||
		norm.Iters != DefaultIters || *norm.Seed != DefaultSeed ||
		*norm.Adversary != DefaultAdversary || norm.Runtime != DefaultRuntime {
		t.Fatalf("defaults not applied: %+v", norm)
	}
	if len(norm.Taus) != 4 || len(norm.Workers) != 3 || len(norm.Sparsity) != 3 {
		t.Fatalf("axis defaults not applied: %+v", norm)
	}
	// The empty request is the CLI's default grid: 108 cells.
	n, err := SweepRequest{}.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 108 {
		t.Fatalf("default request expands to %d cells, want 108", n)
	}
}

// TestKeyNormalizationInvariant: an empty request and one spelling out
// every default share a cache key; changing any execution-relevant field
// changes it.
func TestKeyNormalizationInvariant(t *testing.T) {
	empty, err := SweepRequest{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(DefaultSeed)
	adv := DefaultAdversary
	spelled, err := SweepRequest{
		Taus: DefaultTaus, Workers: DefaultWorkers, Sparsity: DefaultSparsity,
		Dim: DefaultDim, Replicates: DefaultReplicates, Iters: DefaultIters,
		Seed: &seed, Adversary: &adv, Runtime: DefaultRuntime,
	}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if empty != spelled {
		t.Fatalf("equivalent requests have different keys: %s vs %s", empty, spelled)
	}
	for name, mutate := range map[string]func(*SweepRequest){
		"seed":      func(q *SweepRequest) { s := uint64(7); q.Seed = &s },
		"iters":     func(q *SweepRequest) { q.Iters = 41 },
		"adversary": func(q *SweepRequest) { a := 0; q.Adversary = &a },
		"taus":      func(q *SweepRequest) { q.Taus = []int{1, 2, 4} },
		"dim":       func(q *SweepRequest) { q.Dim = 16 },
	} {
		q := SweepRequest{}
		mutate(&q)
		k, err := q.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == empty {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
}

// TestKeyGolden pins Key() for the default request and one hogwild
// request, so cache-key derivation cannot drift silently: a changed key
// orphans every cached result and every key a client has recorded.
func TestKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		req  SweepRequest
		want string
	}{
		{SweepRequest{}, "89b0ea3845a29884"},
		{SweepRequest{Runtime: "hogwild", Dim: 16}, "9c8ee91602ae5978"},
	} {
		got, err := tc.req.Key()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Key(%+v) = %s, want %s", tc.req, got, tc.want)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	cases := map[string]SweepRequest{
		"bad runtime":   {Runtime: "gpu"},
		"bad tau":       {Taus: []int{0}},
		"bad workers":   {Workers: []int{-1}},
		"bad sparsity":  {Sparsity: []float64{1.5}},
		"bad reps":      {Replicates: -2},
		"bad iters":     {Iters: -5},
		"bad dim":       {Dim: -1},
		"bad adversary": {Adversary: func() *int { v := -1; return &v }()},
	}
	for name, req := range cases {
		if _, err := req.Normalized(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

func TestCacheableOnlyMachine(t *testing.T) {
	for rt, want := range map[string]bool{"machine": true, "hogwild": false, "both": false} {
		q, err := SweepRequest{Runtime: rt}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if q.Cacheable() != want {
			t.Errorf("Cacheable(%s) = %v, want %v", rt, q.Cacheable(), want)
		}
	}
}

// TestRunRequestDeterministicDocument: the machine-runtime document is
// byte-identical across reruns modulo the timing fields — the invariant
// the result cache and the CI serve job both lean on.
func TestRunRequestDeterministicDocument(t *testing.T) {
	req := tinyRequest(11)
	var docs [2]string
	for i := range docs {
		rep, err := RunRequest(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FailedCells() != 0 {
			t.Fatalf("run %d: %d failed cells", i, rep.FailedCells())
		}
		var b strings.Builder
		if err := rep.Encode(&b); err != nil {
			t.Fatal(err)
		}
		docs[i] = b.String()
	}
	if stripTiming(docs[0]) != stripTiming(docs[1]) {
		t.Fatalf("documents differ beyond timing fields:\n%s\n---\n%s", docs[0], docs[1])
	}
}

// TestRunRequestStreamsGlobalIndices: with runtime "both" the streamed
// events carry the document cell indices, machine cells first.
func TestRunRequestStreamsGlobalIndices(t *testing.T) {
	req := tinyRequest(5)
	req.Runtime = "both"
	req.Replicates = 1
	seen := map[int]bool{}
	rep, err := RunRequest(context.Background(), req, func(r sweep.CellResult) {
		seen[r.Index] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sweep.Cells != 2 {
		t.Fatalf("cells = %d, want 2 (one per runtime)", rep.Sweep.Cells)
	}
	for i := 0; i < rep.Sweep.Cells; i++ {
		if !seen[i] {
			t.Fatalf("no streamed event carried global index %d (saw %v)", i, seen)
		}
		if rep.Sweep.Results[i].Index != i {
			t.Fatalf("document index %d out of place", i)
		}
	}
	if !strings.Contains(rep.Sweep.Name, "+") {
		t.Fatalf("combined sweep name %q should join both runtimes", rep.Sweep.Name)
	}
}

// stripTiming drops the lines carrying wall-clock values — the documented
// nondeterministic fields of the v2 schema (DESIGN.md §6).
func stripTiming(doc string) string {
	var keep []string
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\"seconds\"") || strings.HasPrefix(trimmed, "\"updates_per_sec\"") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	a, b, d := &cached{}, &cached{}, &cached{}
	c.put("a", a)
	c.put("b", b)
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("d", d)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatal("a should survive eviction")
	}
	if got, ok := c.get("d"); !ok || got != d {
		t.Fatal("d should be present")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
