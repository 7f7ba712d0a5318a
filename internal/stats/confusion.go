package stats

import (
	"fmt"
	"strings"
)

// Confusion is a binary confusion matrix for Sybil classification,
// matching the layout of the paper's Table 1: rows are true classes,
// columns are predicted classes.
type Confusion struct {
	TP int // true Sybil predicted Sybil
	FN int // true Sybil predicted non-Sybil
	FP int // true non-Sybil predicted Sybil
	TN int // true non-Sybil predicted non-Sybil
}

// CrossValidate is the paper's Table 1 protocol, stratified k-fold
// cross-validation: "randomly partition the original sample into 5
// sub-samples, 4 of which are used for training ... and the last used
// to test". The n samples, Sybil where sybil holds, are dealt into k
// folds by StratifiedFolds on r; for each fold, fit trains on the other
// folds' sample indices, in ascending order, and returns a predictor
// that is scored on the fold's own samples. A fold with nothing to
// train on or nothing to test is skipped. It returns the confusion
// matrix summed over the folds.
func CrossValidate(r *Rand, n, k int, sybil func(i int) bool, fit func(train []int) (predict func(i int) bool)) Confusion {
	fold := StratifiedFolds(r, n, k, sybil)
	var total Confusion
	for f := 0; f < k; f++ {
		var train, test []int
		for i := 0; i < n; i++ {
			if fold[i] == f {
				test = append(test, i)
			} else {
				train = append(train, i)
			}
		}
		if len(train) == 0 || len(test) == 0 {
			continue
		}
		predict := fit(train)
		for _, i := range test {
			total.Observe(sybil(i), predict(i))
		}
	}
	return total
}

// Observe records one classification outcome.
func (c *Confusion) Observe(actualSybil, predictedSybil bool) {
	switch {
	case actualSybil && predictedSybil:
		c.TP++
	case actualSybil && !predictedSybil:
		c.FN++
	case !actualSybil && predictedSybil:
		c.FP++
	default:
		c.TN++
	}
}

// TPR is the true-positive rate: detected Sybils / actual Sybils.
func (c *Confusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// FNR is the false-negative rate.
func (c *Confusion) FNR() float64 { return ratio(c.FN, c.TP+c.FN) }

// FPR is the false-positive rate: normals flagged / actual normals.
func (c *Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// TNR is the true-negative rate.
func (c *Confusion) TNR() float64 { return ratio(c.TN, c.FP+c.TN) }

// Accuracy is overall fraction correct.
func (c *Confusion) Accuracy() float64 {
	return ratio(c.TP+c.TN, c.TP+c.TN+c.FP+c.FN)
}

// Precision is TP / (TP + FP).
func (c *Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// String renders the matrix in the percentage layout of Table 1.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s\n", "", "Pred Sybil", "Pred Normal")
	fmt.Fprintf(&b, "%-16s %11.2f%% %11.2f%%\n", "True Sybil", 100*c.TPR(), 100*c.FNR())
	fmt.Fprintf(&b, "%-16s %11.2f%% %11.2f%%\n", "True Non-Sybil", 100*c.FPR(), 100*c.TNR())
	return b.String()
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Table renders rows of cells as an aligned plain-text table with a
// header. Every experiment driver uses it so the output mirrors the
// paper's tables.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
