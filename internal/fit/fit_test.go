package fit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3.519*v + 0.012 // the paper's download-energy line
	}
	slope, icept, _, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 3.519, 1e-9) || !almostEqual(icept, 0.012, 1e-9) {
		t.Errorf("got %v, %v", slope, icept)
	}
}

func TestLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var x, y []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 10
		x = append(x, v)
		y = append(y, 2.5*v+1.0+rng.NormFloat64()*0.01)
	}
	slope, icept, _, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 2.5, 0.01) || !almostEqual(icept, 1.0, 0.01) {
		t.Errorf("got %v, %v", slope, icept)
	}
}

func TestLinearDegenerate(t *testing.T) {
	if _, _, _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := Linear([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("constant x should be singular, got %v", err)
	}
	if _, _, _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMultipleExact(t *testing.T) {
	// The paper's decompression-time model: td = 0.161 s + 0.161 sc + 0.004.
	rng := rand.New(rand.NewSource(52))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		s := rng.Float64() * 10
		sc := s / (1 + rng.Float64()*20)
		x = append(x, []float64{s, sc})
		y = append(y, 0.161*s+0.161*sc+0.004)
	}
	coef, _, err := Multiple(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.161, 0.161, 0.004}
	for i := range want {
		if !almostEqual(coef[i], want[i], 1e-6) {
			t.Errorf("coef[%d] = %v, want %v", i, coef[i], want[i])
		}
	}
}

func TestMultipleSingular(t *testing.T) {
	// Perfectly collinear predictors.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, _, err := Multiple(x, y); !errors.Is(err, ErrSingular) {
		t.Errorf("collinear predictors should be singular, got %v", err)
	}
}

func TestMultipleValidation(t *testing.T) {
	if _, _, err := Multiple(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := Multiple([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system accepted")
	}
	if _, _, err := Multiple([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestEvaluatePerfectFit(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	s, err := Evaluate(obs, obs)
	if err != nil {
		t.Fatal(err)
	}
	if s.R2 != 1 || s.AvgRelErr != 0 || s.MaxRelErr != 0 {
		t.Errorf("perfect fit stats: %+v", s)
	}
}

func TestEvaluateKnownErrors(t *testing.T) {
	obs := []float64{10, 10}
	pred := []float64{11, 9}
	s, err := Evaluate(pred, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.AvgRelErr, 0.1, 1e-12) || !almostEqual(s.MaxRelErr, 0.1, 1e-12) {
		t.Errorf("stats: %+v", s)
	}
}

// TestQuickLinearRecovery: for random non-degenerate lines, the fit
// recovers slope and intercept.
func TestQuickLinearRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slope := rng.Float64()*20 - 10
		icept := rng.Float64()*4 - 2
		var x, y []float64
		for i := 0; i < 50; i++ {
			v := rng.Float64() * 100
			x = append(x, v)
			y = append(y, slope*v+icept)
		}
		gs, gi, _, err := Linear(x, y)
		return err == nil && almostEqual(gs, slope, 1e-6) && almostEqual(gi, icept, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickResidualOrthogonality: OLS residuals are orthogonal to the
// predictor and sum to zero (normal-equation invariant).
func TestQuickResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var x, y []float64
		for i := 0; i < 40; i++ {
			x = append(x, rng.Float64()*10)
			y = append(y, rng.Float64()*10)
		}
		slope, icept, _, err := Linear(x, y)
		if errors.Is(err, ErrSingular) {
			return true
		}
		if err != nil {
			return false
		}
		var sumR, sumRX float64
		for i := range x {
			r := y[i] - (slope*x[i] + icept)
			sumR += r
			sumRX += r * x[i]
		}
		return math.Abs(sumR) < 1e-6 && math.Abs(sumRX) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFitsScoreThemselves: Linear and Multiple score each fit against the
// points it was fitted to — the Stats Evaluate gives for the fitted line
// or plane, Figure 8's E(s) and td(s, sc).
func TestFitsScoreThemselves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var xs, ys []float64
	var xp [][]float64
	var yp []float64
	for i := 0; i < 40; i++ {
		s, sc := rng.Float64()*4, rng.Float64()
		xs = append(xs, s)
		ys = append(ys, 3.519*s+0.012+rng.NormFloat64()*0.01)
		xp = append(xp, []float64{s, sc})
		yp = append(yp, 0.161*s+0.161*sc+0.004+rng.NormFloat64()*0.001)
	}

	slope, icept, st, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(ys))
	for i, v := range xs {
		pred[i] = slope*v + icept
	}
	if want, _ := Evaluate(pred, ys); st != want || st.R2 < 0.99 {
		t.Errorf("line scored %+v, Evaluate gives %+v", st, want)
	}

	coef, st, err := Multiple(xp, yp)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range xp {
		pred[i] = coef[0]*r[0] + coef[1]*r[1] + coef[2]
	}
	if want, _ := Evaluate(pred, yp); st != want || st.R2 < 0.99 {
		t.Errorf("plane scored %+v, Evaluate gives %+v", st, want)
	}
}
