package main

import (
	"reflect"
	"testing"
)

// exactCounters are the per-layer metrics that count work rather than
// time it: the same seed must reproduce them exactly (the document size
// only where documents are deterministic).
var exactCounters = []string{
	"core.iters", "core.coord_ops", "sched.decisions", "sweep.cells",
	"serve.doc_bytes", "serve.events_per_job",
	"cluster.leases_per_job", "cluster.log_records_per_job",
}

func TestExactCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && (w.name == "grid-setup" || w.name == "hogwild-gate") {
				t.Skip("multi-second jobs")
			}
			var runs [2]map[string]float64
			for i := range runs {
				res, err := measure(options{w: w, seed: 7, seconds: 1, traced: true, out: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("run %d failed its output checks: %v", i, res.failures)
				}
				runs[i] = make(map[string]float64)
				for _, name := range exactCounters {
					if name == "serve.doc_bytes" && w.request(0).Runtime == "hogwild" {
						continue // hogwild documents race real goroutines
					}
					m, ok := res.layers[name]
					if !ok {
						t.Fatalf("metric %s not reported", name)
					}
					runs[i][name] = m.Value
				}
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("counters differ between runs with one seed:\n%v\n%v", runs[0], runs[1])
			}
		})
	}
}

func TestJobStreamIsSeeded(t *testing.T) {
	w, _ := findWorkload("jobs-cluster")
	a, b := newJobStream(w, 3), newJobStream(w, 3)
	for i := 0; i < 40; i++ {
		ra, ka := a.next()
		rb, kb := b.next()
		if !reflect.DeepEqual(ra, rb) || ka != kb {
			t.Fatalf("submission %d differs between two streams with one seed", i)
		}
		switch {
		case (i+1)%w.repeatEvery != 0 && ka >= 0:
			t.Errorf("submission %d repeats %d, want a fresh request", i, ka)
		case (i+1)%w.repeatEvery == 0 && (ka < 0 || ka >= i || !reflect.DeepEqual(ra, a.reqs[ka])):
			t.Errorf("submission %d repeats %d, want an earlier request", i, ka)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 31)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	if v, pct := tail(xs); v != 20 || pct != 100*20.0/30 {
		t.Errorf("tail of 0..30 = %v at p%v, want 20 at p66.7", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 28 || pct != 50 {
		t.Errorf("tail of five samples = %v at p%v, want their median", v, pct)
	}
}
