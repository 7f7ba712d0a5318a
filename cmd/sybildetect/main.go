// Command sybildetect evaluates the paper's classifiers on a dataset
// produced by sybilgen: the threshold rule (paper constants or
// stump-fitted), and the SVM with 5-fold cross-validation.
//
// Usage:
//
//	sybildetect -in campaign
package main

import (
	"flag"
	"fmt"
	"log"

	"sybilwild"
	"sybilwild/internal/detector"
	"sybilwild/internal/features"
	"sybilwild/internal/svm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sybildetect: ")
	var (
		in     = flag.String("in", "campaign", "input dataset directory (sybilgen -out)")
		folds  = flag.Int("folds", 5, "cross-validation folds")
		useFit = flag.Bool("fit", true, "stump-fit thresholds (false: raw paper constants)")
	)
	flag.Parse()

	ds, err := sybilwild.LoadDataset(*in)
	if err != nil {
		log.Fatal(err)
	}
	net := ds.Rebuild()
	fmt.Printf("dataset: %q — %d accounts (%d sybils, %d normals), %d events\n",
		ds.Meta.Description, len(ds.Accounts), ds.Meta.Sybils, ds.Meta.Normals, len(ds.Events))

	labelled := features.Labelled(net, ds.SybilIDs, ds.NormalIDs)

	rule := detector.PaperRule()
	if *useFit {
		rule = detector.FitRule(labelled, rule)
	}
	fmt.Printf("\nthreshold rule: %v\n", rule)
	conf := rule.Evaluate(labelled)
	fmt.Print(conf.String())
	fmt.Printf("accuracy %.2f%%  precision %.2f%%\n", 100*conf.Accuracy(), 100*conf.Precision())

	x, y := labelled.Matrix()
	svmConf := svm.CrossValidate(x, y, *folds, svm.DefaultConfig())
	fmt.Printf("\nSVM (%d-fold CV, %v):\n", *folds, svm.DefaultConfig().Kernel)
	fmt.Print(svmConf.String())
	fmt.Printf("accuracy %.2f%%\n", 100*svmConf.Accuracy())
}
