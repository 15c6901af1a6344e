// Package data generates the synthetic datasets used by the regression and
// classification workloads. The paper's experiments need no proprietary
// data — its claims are about the optimization dynamics — so Gaussian
// linear-model and logistic-model generators with controllable dimension,
// sample count, conditioning, sparsity and noise are the faithful
// substitute (see DESIGN.md §1).
package data

import (
	"errors"
	"math"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Dataset is a supervised dataset with dense feature rows.
type Dataset struct {
	Rows   []vec.Dense // feature vectors a_i
	Labels []float64   // targets b_i (regression) or ±1 (classification)
	Truth  vec.Dense   // generating model x♮ (for diagnostics)
}

// ErrBadShape reports invalid generator parameters.
var ErrBadShape = errors.New("data: invalid shape")

// Len returns the number of samples.
func (ds *Dataset) Len() int { return len(ds.Rows) }

// Dim returns the feature dimension (0 for an empty dataset).
func (ds *Dataset) Dim() int {
	if len(ds.Rows) == 0 {
		return 0
	}
	return ds.Rows[0].Dim()
}

// MaxRowNorm2Sq returns max_i ‖a_i‖², which bounds the per-sample gradient
// Lipschitz constants of least squares and logistic regression.
func (ds *Dataset) MaxRowNorm2Sq() float64 {
	var m float64
	for _, r := range ds.Rows {
		if s := r.Norm2Sq(); s > m {
			m = s
		}
	}
	return m
}

// Gram returns the empirical second-moment matrix (1/m)·Σ a_i a_iᵀ, whose
// smallest eigenvalue is the least-squares strong convexity constant. It
// skips zero coordinates (vec.Sym.AddOuterSparse), so a row with k
// non-zeros costs k² instead of d², and every entry keeps the bits a
// dense AddOuter accumulation gives.
func (ds *Dataset) Gram() (*vec.Sym, error) {
	d := ds.Dim()
	if d == 0 {
		return nil, ErrBadShape
	}
	g := vec.NewSym(d)
	w := 1 / float64(ds.Len())
	var nz vec.Sparse
	for _, r := range ds.Rows {
		nz.Reset(len(r))
		for j, v := range r {
			nz.Append(j, v) // drops zeros
		}
		if err := g.AddOuterSparse(w, nz); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// LinearConfig parameterizes GenLinear.
type LinearConfig struct {
	Samples   int     // m
	Dim       int     // d
	NoiseStd  float64 // label noise standard deviation
	CondExp   float64 // feature scale decay: coord j scaled by CondExp^(-j/(d-1)); 1 = isotropic
	TruthNorm float64 // ‖x♮‖ of the planted model (0 ⇒ 1)
}

// GenLinear generates a linear-regression dataset b = a·x♮ + ξ with
// Gaussian features. CondExp > 1 skews the feature covariance to produce
// an ill-conditioned Gram matrix (condition number ≈ CondExp²).
func GenLinear(cfg LinearConfig, r *rng.Rand) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Dim <= 0 || cfg.NoiseStd < 0 {
		return nil, ErrBadShape
	}
	if cfg.CondExp == 0 {
		cfg.CondExp = 1
	}
	if cfg.TruthNorm == 0 {
		cfg.TruthNorm = 1
	}
	scales := coordScales(cfg.Dim, cfg.CondExp)
	truth := randomDirection(cfg.Dim, cfg.TruthNorm, r)
	ds := &Dataset{
		Rows:   make([]vec.Dense, cfg.Samples),
		Labels: make([]float64, cfg.Samples),
		Truth:  truth,
	}
	for i := 0; i < cfg.Samples; i++ {
		row := vec.NewDense(cfg.Dim)
		for j := range row {
			row[j] = scales[j] * r.Normal()
		}
		ds.Rows[i] = row
		ds.Labels[i] = vec.MustDot(row, truth) + cfg.NoiseStd*r.Normal()
	}
	return ds, nil
}

// LogisticConfig parameterizes GenLogistic.
type LogisticConfig struct {
	Samples  int
	Dim      int
	Margin   float64 // scale of the planted model; larger ⇒ more separable
	FlipProb float64 // label noise: probability of flipping the label
	CondExp  float64 // feature conditioning as in LinearConfig
}

// GenLogistic generates a binary classification dataset with labels ±1
// drawn from the logistic model P(y=1|a) = σ(Margin·a·x♮), with optional
// label flips.
func GenLogistic(cfg LogisticConfig, r *rng.Rand) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Dim <= 0 || cfg.FlipProb < 0 || cfg.FlipProb > 0.5 {
		return nil, ErrBadShape
	}
	if cfg.CondExp == 0 {
		cfg.CondExp = 1
	}
	if cfg.Margin == 0 {
		cfg.Margin = 1
	}
	scales := coordScales(cfg.Dim, cfg.CondExp)
	truth := randomDirection(cfg.Dim, 1, r)
	ds := &Dataset{
		Rows:   make([]vec.Dense, cfg.Samples),
		Labels: make([]float64, cfg.Samples),
		Truth:  truth,
	}
	for i := 0; i < cfg.Samples; i++ {
		row := vec.NewDense(cfg.Dim)
		for j := range row {
			row[j] = scales[j] * r.Normal()
		}
		ds.Rows[i] = row
		p := 1 / (1 + math.Exp(-cfg.Margin*vec.MustDot(row, truth)))
		y := -1.0
		if r.Bernoulli(p) {
			y = 1
		}
		if r.Bernoulli(cfg.FlipProb) {
			y = -y
		}
		ds.Labels[i] = y
	}
	return ds, nil
}

// SparsifyRows zeroes each feature entry independently with probability
// 1−keep and rescales survivors by 1/keep so row second moments are
// preserved in expectation. It models the sparse-gradient workloads the
// Hogwild literature motivates. keep must be in (0, 1].
func SparsifyRows(ds *Dataset, keep float64, r *rng.Rand) error {
	if keep <= 0 || keep > 1 {
		return ErrBadShape
	}
	inv := 1 / keep
	for _, row := range ds.Rows {
		for j := range row {
			if r.Bernoulli(keep) {
				row[j] *= inv
			} else {
				row[j] = 0
			}
		}
	}
	return nil
}

func coordScales(d int, condExp float64) []float64 {
	s := make([]float64, d)
	for j := range s {
		if d == 1 || condExp == 1 {
			s[j] = 1
			continue
		}
		frac := float64(j) / float64(d-1)
		s[j] = math.Pow(condExp, -frac)
	}
	return s
}

func randomDirection(d int, norm float64, r *rng.Rand) vec.Dense {
	v := vec.NewDense(d)
	for {
		r.NormalVector(v, 1)
		if n := v.Norm2(); n > 0 {
			v.Scale(norm / n)
			return v
		}
	}
}
