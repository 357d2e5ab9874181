package stats

// LinFit is an ordinary-least-squares straight-line fit y = Slope·x +
// Intercept. Paper Section 5 fits Tdynamic against FE↔BE geographic
// distance; the intercept estimates the back-end processing time and the
// slope the per-mile network-delay contribution.
type LinFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
	N         int
}

// LinReg fits a least-squares line through (xs[i], ys[i]). The slices must
// have equal length; fewer than two points or zero x-variance yields a
// horizontal line through the mean with R2 = 0.
func LinReg(xs, ys []float64) LinFit {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n == 0 {
		return LinFit{}
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if n < 2 || sxx == 0 {
		return LinFit{Intercept: my, N: n}
	}
	slope := sxy / sxx
	fit := LinFit{Slope: slope, Intercept: my - slope*mx, N: n}
	if syy > 0 {
		// R² = 1 − SS_res/SS_tot, computed from the identity
		// SS_res = syy − slope·sxy for the OLS line.
		fit.R2 = 1 - (syy-slope*sxy)/syy
		if fit.R2 < 0 {
			fit.R2 = 0
		}
	}
	return fit
}
