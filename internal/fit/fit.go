// Package fit provides the least-squares machinery the paper uses to
// calibrate its energy model: simple linear regression for download energy
// (E = m·s + cs, Figure 8b), multiple linear regression for decompression
// time (td = a·s + b·sc + c, Figure 8a), and the error statistics the paper
// reports (average relative error, maximum error, R²).
package fit

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal equations are (near-)singular,
// e.g. when predictors are collinear or there are too few points.
var ErrSingular = errors.New("fit: singular system")

// Linear fits y = slope*x + intercept by ordinary least squares.
func Linear(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("fit: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, 0, fmt.Errorf("fit: need at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return 0, 0, ErrSingular
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// Multiple fits y = coef[0]*X[i][0] + ... + coef[k-1]*X[i][k-1] + coef[k]
// (an intercept is appended automatically) by solving the normal equations.
func Multiple(x [][]float64, y []float64) ([]float64, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("fit: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, errors.New("fit: no data")
	}
	k := len(x[0])
	dim := k + 1 // + intercept
	if len(x) < dim {
		return nil, fmt.Errorf("fit: %d points cannot determine %d coefficients", len(x), dim)
	}
	// Build X'X and X'y with the intercept column folded in.
	xtx := make([][]float64, dim)
	for i := range xtx {
		xtx[i] = make([]float64, dim)
	}
	xty := make([]float64, dim)
	row := make([]float64, dim)
	for i := range x {
		if len(x[i]) != k {
			return nil, fmt.Errorf("fit: ragged row %d", i)
		}
		copy(row, x[i])
		row[k] = 1
		for a := 0; a < dim; a++ {
			for b := 0; b < dim; b++ {
				xtx[a][b] += row[a] * row[b]
			}
			xty[a] += row[a] * y[i]
		}
	}
	return solve(xtx, xty)
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the inputs.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := m[i][n]
		for j := i + 1; j < n; j++ {
			v -= m[i][j] * out[j]
		}
		out[i] = v / m[i][i]
	}
	return out, nil
}

// Stats holds the goodness-of-fit figures the paper reports.
type Stats struct {
	// R2 is the coefficient of determination.
	R2 float64
	// AvgRelErr is the mean of |pred-obs|/obs over points with obs != 0,
	// the paper's "average error rate".
	AvgRelErr float64
	// MaxRelErr is the largest |pred-obs|/obs.
	MaxRelErr float64
}

// Evaluate computes fit statistics for predictions against observations.
func Evaluate(pred, obs []float64) (Stats, error) {
	if len(pred) != len(obs) {
		return Stats{}, fmt.Errorf("fit: length mismatch %d vs %d", len(pred), len(obs))
	}
	if len(obs) == 0 {
		return Stats{}, errors.New("fit: no data")
	}
	var mean float64
	for _, v := range obs {
		mean += v
	}
	mean /= float64(len(obs))
	var ssRes, ssTot float64
	var sumRel, maxRel float64
	nRel := 0
	for i := range obs {
		d := pred[i] - obs[i]
		ssRes += d * d
		t := obs[i] - mean
		ssTot += t * t
		if obs[i] != 0 {
			rel := math.Abs(d / obs[i])
			sumRel += rel
			if rel > maxRel {
				maxRel = rel
			}
			nRel++
		}
	}
	s := Stats{MaxRelErr: maxRel}
	if nRel > 0 {
		s.AvgRelErr = sumRel / float64(nRel)
	}
	if ssTot > 0 {
		s.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		s.R2 = 1
	}
	return s, nil
}
