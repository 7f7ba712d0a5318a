package detector

import (
	"sybilwild/internal/features"
	"sybilwild/internal/stats"
)

// FeatureNames labels the canonical feature ordering of
// features.Vector.Features().
var FeatureNames = []string{"freq1h", "freq400h", "outAccept", "inAccept", "cc"}

// FeatureEval is one feature's stand-alone discriminative power: a
// single-threshold classifier using only that feature, evaluated with
// stratified k-fold cross-validation (cuts fitted on training folds
// only, so the numbers are honest generalization estimates and
// directly comparable to the Table 1 protocol).
type FeatureEval struct {
	Name       string
	Cut        float64 // cut fitted on the full data (for reporting)
	SybilBelow bool    // true when values below the cut are classified Sybil
	Confusion  stats.Confusion
}

// EvaluateFeatures cross-validates a decision stump per feature,
// quantifying what each of §2.2's four behavioural attributes
// contributes on its own. Accounts below minObserved outgoing requests
// are excluded (their ratios are noise).
func EvaluateFeatures(ds features.Dataset, minObserved, folds int, seed int64) []FeatureEval {
	if folds < 2 {
		folds = 2
	}
	var out []FeatureEval
	for f, name := range FeatureNames {
		var xs []sample
		for i, v := range ds.Vectors {
			if v.OutSent < minObserved {
				continue
			}
			xs = append(xs, sample{v.Features()[f], ds.Labels[i]})
		}
		if len(xs) < folds {
			out = append(out, FeatureEval{Name: name})
			continue
		}
		eval := FeatureEval{Name: name}
		eval.Confusion = crossValidateStump(xs, folds, seed+int64(f))
		// Report the full-data cut and direction for the table.
		eval.Cut, eval.SybilBelow = fitStump(xs)
		out = append(out, eval)
	}
	return out
}

// fitStump picks the best cut and direction on the given samples.
func fitStump(xs []sample) (cut float64, sybilBelow bool) {
	below := bestCut(xs, true)
	above := bestCut(xs, false)
	errBelow, errAbove := 0, 0
	for _, s := range xs {
		if (s.x < below) != s.sybil {
			errBelow++
		}
		if (s.x > above) != s.sybil {
			errAbove++
		}
	}
	if errBelow <= errAbove {
		return below, true
	}
	return above, false
}

func crossValidateStump(xs []sample, folds int, seed int64) stats.Confusion {
	r := stats.NewRand(seed)
	fold := stats.StratifiedFolds(r, len(xs), folds, func(i int) bool { return xs[i].sybil })
	var total stats.Confusion
	for f := 0; f < folds; f++ {
		var train, test []sample
		for i, s := range xs {
			if fold[i] == f {
				test = append(test, s)
			} else {
				train = append(train, s)
			}
		}
		if len(train) == 0 || len(test) == 0 {
			continue
		}
		cut, sybilBelow := fitStump(train)
		for _, s := range test {
			pred := s.x > cut
			if sybilBelow {
				pred = s.x < cut
			}
			total.Observe(s.sybil, pred)
		}
	}
	return total
}
