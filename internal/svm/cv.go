package svm

import (
	"sybilwild/internal/stats"
)

// CrossValidate runs the paper's stratified k-fold cross-validation
// (stats.CrossValidate) with the SVM and returns the confusion matrix
// accumulated over all folds. Labels are ±1 with +1 = Sybil. Features
// are standardized inside each fold using training statistics only.
func CrossValidate(x [][]float64, y []float64, k int, cfg Config) stats.Confusion {
	sybil := func(i int) bool { return y[i] > 0 }
	return stats.CrossValidate(stats.NewRand(cfg.Seed+1000), len(y), max(k, 2), sybil, func(train []int) func(int) bool {
		trainX, trainY := make([][]float64, len(train)), make([]float64, len(train))
		for j, i := range train {
			trainX[j], trainY[j] = x[i], y[i]
		}
		sc := FitScaler(trainX)
		model := Train(sc.Transform(trainX), trainY, cfg)
		return func(i int) bool { return model.Classify(sc.TransformRow(x[i])) }
	})
}
