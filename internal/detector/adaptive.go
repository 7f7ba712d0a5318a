package detector

import "sybilwild/internal/features"

// Adaptive is the feedback-tuned threshold detector. The paper's
// production deployment "uses an adaptive feedback scheme to
// dynamically tune threshold parameters on the fly" (§2.3, details
// withheld for confidentiality); this is one concrete instantiation:
// a rolling window of audited (manually labelled) samples is kept, and
// the thresholds are re-fit by decision stump whenever enough new
// audits arrive.
//
// The important property this preserves from the paper is robustness
// to behaviour drift: if Sybils lower their invitation rates, the
// frequency cut follows them down as audited examples accumulate.
type Adaptive struct {
	Rule Rule // current thresholds

	window    int
	refitEach int
	pending   int
	samples   []auditSample
}

type auditSample struct {
	v     features.Vector
	sybil bool
}

// NewAdaptive starts from a seed rule, keeps the last `window` audited
// samples, and re-fits after every `refitEach` new audits.
func NewAdaptive(seed Rule, window, refitEach int) *Adaptive {
	if window < 10 {
		window = 10
	}
	if refitEach < 1 {
		refitEach = 1
	}
	return &Adaptive{Rule: seed, window: window, refitEach: refitEach}
}

// Classify applies the current thresholds.
func (a *Adaptive) Classify(v features.Vector) bool { return a.Rule.Classify(v) }

// NeedsCC applies the current thresholds' CC gate (CCGated).
func (a *Adaptive) NeedsCC(v features.Vector) bool { return a.Rule.NeedsCC(v) }

// Audit records a ground-truth labelled sample (e.g. the verdict of
// Renren's human verification team on a flagged account) and re-fits
// the thresholds when due.
func (a *Adaptive) Audit(v features.Vector, isSybil bool) {
	a.samples = append(a.samples, auditSample{v: v, sybil: isSybil})
	if len(a.samples) > a.window {
		a.samples = a.samples[len(a.samples)-a.window:]
	}
	a.pending++
	if a.pending >= a.refitEach {
		a.refit()
		a.pending = 0
	}
}

func (a *Adaptive) refit() {
	// Need both classes present to fit anything meaningful.
	var nSyb int
	for _, s := range a.samples {
		if s.sybil {
			nSyb++
		}
	}
	if nSyb == 0 || nSyb == len(a.samples) {
		return
	}
	ds := features.Dataset{
		Vectors: make([]features.Vector, len(a.samples)),
		Labels:  make([]bool, len(a.samples)),
	}
	for i, s := range a.samples {
		ds.Vectors[i] = s.v
		ds.Labels[i] = s.sybil
	}
	a.Rule = FitRule(ds, a.Rule)
}
