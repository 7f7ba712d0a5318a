package experiments

import (
	"fmt"
	"strings"

	"sybilwild/internal/detector"
	"sybilwild/internal/features"
	"sybilwild/internal/stats"
	"sybilwild/internal/svm"
)

// Fig1 — Average friend-invitation frequency over 1-hour and 400-hour
// windows (CDFs for normal users and Sybils). The paper's headline
// observations: accounts above ~20 invites per interval are Sybils at
// both time scales, and a 40 req/h cut catches ≈70% of Sybils with no
// false positives.
func Fig1(gt *GroundTruth) Report {
	syb := activeOnly(gt.SybilVecs)
	norm := activeOnly(gt.NormalVecs)
	s1 := stats.NewECDF(collect(syb, func(v features.Vector) float64 { return v.Freq1h }))
	s400 := stats.NewECDF(collect(syb, func(v features.Vector) float64 { return v.Freq400h }))
	n1 := stats.NewECDF(collect(norm, func(v features.Vector) float64 { return v.Freq1h }))
	n400 := stats.NewECDF(collect(norm, func(v features.Vector) float64 { return v.Freq400h }))

	sybAbove40 := 1 - s1.Eval(40)
	normAbove20both := 0.0
	for _, v := range norm {
		if v.Freq1h > 20 || v.Freq400h > 20 {
			normAbove20both++
		}
	}
	normAbove20both /= float64(max(len(norm), 1))
	sweep := detector.FrequencySweep(gt.DS, []float64{10, 20, 40, 60})

	var b strings.Builder
	b.WriteString(renderSeries("Sybil 1h", s1, 8))
	b.WriteString(renderSeries("Sybil 400h", s400, 8))
	b.WriteString(renderSeries("Normal 1h", n1, 8))
	b.WriteString(renderSeries("Normal 400h", n400, 8))
	b.WriteString(stats.AsciiCDF(60, 12, 0, 60, map[string]*stats.ECDF{
		"sybil-1h": s1, "normal-1h": n1,
	}))
	fmt.Fprintf(&b, "Sybils ≥40 invites/h: %s (paper ≈70%%)\n", pct(sybAbove40))
	fmt.Fprintf(&b, "Normals above 20/interval at either scale: %s (paper ≈0%%)\n", pct(normAbove20both))
	for _, p := range sweep {
		fmt.Fprintf(&b, "freq-only cut %4.0f/h: TPR=%s FPR=%s\n", p.Cut, pct(p.TPR), pct(p.FPR))
	}
	return Report{
		ID:    "fig1",
		Title: "Average friend invitation frequency (1h and 400h windows)",
		Body:  b.String(),
		Values: map[string]float64{
			"sybil_frac_ge40_per_h": sybAbove40,
			"normal_frac_above20":   normAbove20both,
			"cut40_tpr":             sweepVal(sweep, 40).TPR,
			"cut40_fpr":             sweepVal(sweep, 40).FPR,
			"sybil_median_1h":       s1.Quantile(0.5),
			"normal_median_400h":    n400.Quantile(0.5),
		},
	}
}

func sweepVal(ps []detector.SweepPoint, cut float64) detector.SweepPoint {
	for _, p := range ps {
		if p.Cut == cut {
			return p
		}
	}
	return detector.SweepPoint{}
}

// Fig2 — Ratio of accepted outgoing friend requests. Paper: normal
// mean ≈0.79, Sybil mean ≈0.26.
func Fig2(gt *GroundTruth) Report {
	syb := activeOnly(gt.SybilVecs)
	norm := activeOnly(gt.NormalVecs)
	se := stats.NewECDF(collect(syb, func(v features.Vector) float64 { return v.OutAccept }))
	ne := stats.NewECDF(collect(norm, func(v features.Vector) float64 { return v.OutAccept }))
	sybMean := stats.Mean(collect(syb, func(v features.Vector) float64 { return v.OutAccept }))
	normMean := stats.Mean(collect(norm, func(v features.Vector) float64 { return v.OutAccept }))

	var b strings.Builder
	b.WriteString(renderSeries("Sybil", se, 10))
	b.WriteString(renderSeries("Normal", ne, 10))
	b.WriteString(stats.AsciiCDF(60, 12, 0, 1, map[string]*stats.ECDF{"sybil": se, "normal": ne}))
	fmt.Fprintf(&b, "mean outgoing accept: sybil %.3f (paper 0.26), normal %.3f (paper 0.79)\n", sybMean, normMean)
	return Report{
		ID:    "fig2",
		Title: "Ratio of accepted outgoing friend requests",
		Body:  b.String(),
		Values: map[string]float64{
			"sybil_mean":  sybMean,
			"normal_mean": normMean,
		},
	}
}

// Fig3 — Ratio of accepted incoming friend requests. Paper: Sybils
// accept nearly everything (80% accept all); normal users are spread.
func Fig3(gt *GroundTruth) Report {
	withIncoming := func(vs []features.Vector) []features.Vector {
		var out []features.Vector
		for _, v := range vs {
			if v.InReceived > 0 {
				out = append(out, v)
			}
		}
		return out
	}
	syb := withIncoming(gt.SybilVecs)
	norm := withIncoming(gt.NormalVecs)
	se := stats.NewECDF(collect(syb, func(v features.Vector) float64 { return v.InAccept }))
	ne := stats.NewECDF(collect(norm, func(v features.Vector) float64 { return v.InAccept }))
	sybAll := 0.0
	for _, v := range syb {
		if v.InAccept >= 1 {
			sybAll++
		}
	}
	if len(syb) > 0 {
		sybAll /= float64(len(syb))
	}
	normStd := stats.Summarize(collect(norm, func(v features.Vector) float64 { return v.InAccept })).Std

	var b strings.Builder
	b.WriteString(renderSeries("Sybil", se, 10))
	b.WriteString(renderSeries("Normal", ne, 10))
	fmt.Fprintf(&b, "Sybils accepting 100%% of incoming: %s (paper ≈80%%)\n", pct(sybAll))
	fmt.Fprintf(&b, "normal incoming-accept std: %.3f (spread across the board)\n", normStd)
	return Report{
		ID:    "fig3",
		Title: "Ratio of accepted incoming friend requests",
		Body:  b.String(),
		Values: map[string]float64{
			"sybil_frac_accept_all": sybAll,
			"normal_std":            normStd,
		},
	}
}

// Fig4 — Clustering coefficient of each account's first 50 friends.
// Paper: normal mean 0.0386 vs Sybil 0.0006 (orders of magnitude).
// Absolute magnitudes scale with graph size; the shape target is the
// separation ratio.
func Fig4(gt *GroundTruth) Report {
	withDeg := func(ids []features.Vector) []float64 {
		var out []float64
		g := gt.Pop.Net.Graph()
		for _, v := range ids {
			if g.Degree(v.ID) >= 2 {
				out = append(out, v.CC)
			}
		}
		return out
	}
	syb := withDeg(gt.SybilVecs)
	norm := withDeg(gt.NormalVecs)
	se := stats.NewECDF(syb)
	ne := stats.NewECDF(norm)
	sybMean := stats.Mean(syb)
	normMean := stats.Mean(norm)
	ratio := 0.0
	if sybMean > 0 {
		ratio = normMean / sybMean
	}

	var b strings.Builder
	b.WriteString(renderSeries("Sybil cc", se, 10))
	b.WriteString(renderSeries("Normal cc", ne, 10))
	fmt.Fprintf(&b, "mean first-50 cc: sybil %.5f (paper 0.0006), normal %.5f (paper 0.0386), ratio %.1fx\n",
		sybMean, normMean, ratio)
	return Report{
		ID:    "fig4",
		Title: "Clustering coefficient of users' first 50 friends",
		Body:  b.String(),
		Values: map[string]float64{
			"sybil_mean":  sybMean,
			"normal_mean": normMean,
			"ratio":       ratio,
		},
	}
}

// Table1 — SVM vs threshold classifier on the ground truth, 5-fold
// cross-validation. Paper: both ≈99% accurate per class.
func Table1(gt *GroundTruth) Report {
	// Balance the dataset like the paper's 1000+1000 sample.
	bal := balance(gt)
	x, y := bal.Matrix()

	svmConf := svm.CrossValidate(x, y, 5, svm.DefaultConfig())

	// Threshold detector: the paper's published constants were tuned on
	// Renren's full graph; refit the cc cut at this scale via the same
	// stump procedure the adaptive scheme uses, cross-validated.
	thrConf := crossValidateRule(bal, 5, gt.Cfg.Seed)

	var b strings.Builder
	b.WriteString("SVM (5-fold CV):\n")
	b.WriteString(svmConf.String())
	b.WriteString("Threshold (5-fold CV, stump-fitted):\n")
	b.WriteString(thrConf.String())
	fitted := detector.FitRule(bal, detector.PaperRule())
	fmt.Fprintf(&b, "fitted rule: %v\n", fitted)
	return Report{
		ID:    "table1",
		Title: "Performance of SVM and threshold classifiers",
		Body:  b.String(),
		Values: map[string]float64{
			"svm_tpr": svmConf.TPR(), "svm_tnr": svmConf.TNR(),
			"svm_fpr": svmConf.FPR(), "svm_fnr": svmConf.FNR(),
			"thr_tpr": thrConf.TPR(), "thr_tnr": thrConf.TNR(),
			"thr_fpr": thrConf.FPR(), "thr_fnr": thrConf.FNR(),
		},
	}
}

// balance subsamples normals to match the Sybil count (paper protocol:
// 1000 + 1000).
func balance(gt *GroundTruth) features.Dataset {
	r := stats.NewRand(gt.Cfg.Seed + 77)
	var ds features.Dataset
	var normIdx []int
	for i, lab := range gt.DS.Labels {
		if lab {
			ds.Vectors = append(ds.Vectors, gt.DS.Vectors[i])
			ds.Labels = append(ds.Labels, true)
		} else {
			normIdx = append(normIdx, i)
		}
	}
	want := len(ds.Vectors)
	for _, j := range stats.SampleWithoutReplacement(r, len(normIdx), want) {
		ds.Vectors = append(ds.Vectors, gt.DS.Vectors[normIdx[j]])
		ds.Labels = append(ds.Labels, false)
	}
	return ds
}

// crossValidateRule evaluates the stump-fitted threshold rule with
// k-fold CV (fit on training folds, evaluate on the held-out fold).
func crossValidateRule(ds features.Dataset, k int, seed int64) stats.Confusion {
	r := stats.NewRand(seed + 31)
	fold := stats.StratifiedFolds(r, len(ds.Vectors), k, func(i int) bool { return ds.Labels[i] })
	var total stats.Confusion
	for f := 0; f < k; f++ {
		var train, test features.Dataset
		for i := range ds.Vectors {
			if fold[i] == f {
				test.Vectors = append(test.Vectors, ds.Vectors[i])
				test.Labels = append(test.Labels, ds.Labels[i])
			} else {
				train.Vectors = append(train.Vectors, ds.Vectors[i])
				train.Labels = append(train.Labels, ds.Labels[i])
			}
		}
		rule := detector.FitRule(train, detector.PaperRule())
		total.Add(rule.Evaluate(test))
	}
	return total
}
