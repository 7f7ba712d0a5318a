package svm

import (
	"sybilwild/internal/stats"
)

// CrossValidate performs stratified k-fold cross-validation — the
// paper's protocol: "randomly partition the original sample into 5
// sub-samples, 4 of which are used for training ... and the last used
// to test" — and returns the confusion matrix accumulated over all
// folds. Labels are ±1 with +1 = Sybil. Features are standardized
// inside each fold using training statistics only.
func CrossValidate(x [][]float64, y []float64, k int, cfg Config) stats.Confusion {
	if k < 2 {
		k = 2
	}
	r := stats.NewRand(cfg.Seed + 1000)
	fold := stats.StratifiedFolds(r, len(y), k, func(i int) bool { return y[i] > 0 })

	var total stats.Confusion
	for f := 0; f < k; f++ {
		var trainX [][]float64
		var trainY []float64
		var testX [][]float64
		var testY []float64
		for i := range y {
			if fold[i] == f {
				testX = append(testX, x[i])
				testY = append(testY, y[i])
			} else {
				trainX = append(trainX, x[i])
				trainY = append(trainY, y[i])
			}
		}
		if len(trainX) == 0 || len(testX) == 0 {
			continue
		}
		sc := FitScaler(trainX)
		model := Train(sc.Transform(trainX), trainY, cfg)
		for i, row := range testX {
			pred := model.Classify(sc.TransformRow(row))
			total.Observe(testY[i] > 0, pred)
		}
	}
	return total
}
