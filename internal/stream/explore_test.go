package stream

// The control-plane explorer: a breadth-first search over event
// sequences that drives the plane, a real feedLog and workers whose
// every decision is the worker kernel's (kernel.go), the one
// cluster.Worker runs, and checks the cluster's invariants after every
// step. A violation fails the test with the shortest event sequence
// that reaches it. It opens no socket: the broker is a Server with no
// listener, and the spool is a model of what the Server writes beside
// its log (cutover notes and snapshot files).
//
// The feed is tiny: sequence s carries account s's event, or a cutover
// record. A worker is a kernel and the state it judges: the kernel
// picks its hellos, reads its refusals, trims each batch and retires it
// at a record, and decides its offers, its acks and its resume points;
// the worker judges the events of its batches that its key owns. A
// state is a judge per sequence, so a snapshot says which worker judged
// each event it holds.

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/maphash"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
)

var exploreDepth = flag.Int("explore.depth", 8, "depth of TestControlPlaneExplorer's breadth-first search (a test setting)")

// TestControlPlaneExplorer searches every event sequence up to
// -explore.depth from each configuration's seeds: a spooled root, a
// spooled relay hop that learns cutovers from their records, and a root
// whose spool failed, so its two-event tail is all the feed still
// serves, the one configuration with single-worker blips (they double
// the others' time). The
// invariants, checked after every step:
//
//   - one owner: a worker judges only events of its shape's current
//     generation, no event is judged again while the judge that judged
//     it lives, no state holds an event twice, and a key has one
//     connected worker;
//   - the fence: no hello is admitted that would judge another shape's
//     events (an old-shape resume only at R ≤ B, no fresh join of a
//     retired shape), a worker retires only at a record while its shape
//     is not current, no worker of a cut-to shape starts cold past the
//     cut, and a start of the shape in force with no cut pending leaves
//     no key without a worker;
//   - commit: a cut commits only once every new key holds state at or
//     past its barrier, and stays committed; every held snapshot and
//     live state is the exact state of its key, judged by the judges
//     the ledger names;
//   - restart: a reopened broker answers every hello, offer and prepare
//     as the live broker it restarts from would, and keeps every
//     confirmed cut; a prepare is confirmed only once its record is
//     published;
//   - cursors: a resume is admitted exactly at its kernel's resume
//     point.
func TestControlPlaneExplorer(t *testing.T) {
	for _, cfg := range exploreConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			start := time.Now()
			n, path, why := explore(cfg, *exploreDepth)
			if why != "" {
				t.Fatalf("%s\nafter %s", why, strings.Join(path, " → "))
			}
			t.Logf("depth %d: %d states in %v", *exploreDepth, n, time.Since(start).Round(time.Millisecond))
		})
	}
}

// exploreConfig is one broker configuration and its seeds.
type exploreConfig struct {
	name   string
	shapes []int // the group shapes workers use; the first is the initial one
	hop    bool  // a relay hop: cutovers arrive as records (learn), not prepares
	window int   // the log's tail; when small the spool failed and the tail is all the feed serves, else every sequence is served
	blip   bool  // the alphabet has single-worker connection blips
	seeds  [][]event
}

func exploreConfigs() []exploreConfig {
	warm := []event{{kind: evStart, a: 2}, {kind: evPub}, {kind: evPub}, {kind: evOffer, a: 2}, {kind: evPub}}
	root := append(slices.Clone(warm), event{kind: evPrep, a: 2, b: 3}, event{kind: evPubCut}, event{kind: evStart, a: 3}, event{kind: evPub})
	hop := append(slices.Clone(warm), event{kind: evLearn, a: 2, b: 3}, event{kind: evStart, a: 3}, event{kind: evPub})
	chain := append(slices.Clone(warm), event{kind: evLearn, a: 2, b: 3}, event{kind: evPub}, event{kind: evLearn, a: 3, b: 2})
	return []exploreConfig{
		{name: "spooled-root", shapes: []int{2, 3}, window: 1 << 10, seeds: [][]event{warm, root}},
		{name: "spooled-hop", shapes: []int{2, 3}, hop: true, window: 1 << 10, seeds: [][]event{hop, chain}},
		{name: "failed-spool-root", shapes: []int{2, 3}, window: 2, blip: true, seeds: [][]event{warm}},
	}
}

// maxFeed bounds the feed: pub, prepare and learn stop there.
const maxFeed = 10

const (
	evPub     = iota // the producer publishes one event
	evPrep           // a prepare's reserve half: a → b
	evPubCut         // the oldest reserved record's publish half, which confirms its prepare
	evRetry          // a retried prepare of the reserved record, then its publish
	evLearn          // a relay hop adopts a record a → b
	evRestart        // the spooled broker is killed and reopened; live workers resume
	evStart          // every key of shape a with no connected worker dials with adopt
	evOffer          // every connected worker of shape a offers its state
	evKill           // the connected worker on b/a dies; it and the kinds after it name one worker
	evLate           // the dead worker on b/a's last offer lands
	evReplay         // a worker on b/a replays the feed from sequence 1
	evBlip           // the connected worker on b/a loses its connection, saves, and resumes at the next step
)

type event struct{ kind, a, b int }

// eventNames names each kind of event; String adds its shapes, or its
// shape and part.
var eventNames = [...]string{evPub: "pub", evPrep: "prepare", evPubCut: "publish cut", evRetry: "retry prepare",
	evLearn: "learn", evRestart: "restart", evStart: "start", evOffer: "offer", evKill: "kill", evLate: "late offer",
	evReplay: "replay", evBlip: "blip"}

func (e event) String() string {
	switch name := eventNames[e.kind]; {
	case e.kind == evPrep || e.kind == evLearn:
		return fmt.Sprintf("%s %d→%d", name, e.a, e.b)
	case e.kind >= evKill:
		return fmt.Sprintf("%s %d/%d", name, e.b, e.a)
	case e.kind >= evStart:
		return fmt.Sprintf("%s %d", name, e.a)
	default:
		return name
	}
}

// entry is one published sequence: account s's event, or a record.
type entry struct {
	rec      bool
	from, to int
}

// replayed marks a judgment a replaying worker made of history: it
// re-derives state and stands for whichever judge the ledger names.
const replayed = 0xff

// worker is a cluster.Worker: its kernel, the state it judges, and the
// model's bookkeeping.
type worker struct {
	k       Kernel
	id      uint8
	alive   bool   // not killed, and not ended by a refusal
	conn    bool   // admitted and not ended
	lost    bool   // its connection blipped: it resumes at the next step
	late    bool   // killed with an offer in flight
	history uint64 // a replay's history ends here; its judgments up to it are replayed
	cold    uint64 // the state may miss events at or below cold
	state   []uint8
}

func (wk *worker) key() partKey { return partKey{part: wk.k.Part, parts: wk.k.Parts} }

func (wk *worker) retired() bool { return wk.k.barrier > 0 }

// world is one state of the search.
type world struct {
	cfg       *exploreConfig
	srv       *Server // no listener: the log and the plane
	feed      []entry
	reserved  []cutover // prepared, not yet published
	confirmed []cutover // prepares answered
	notes     []spool.Cutover
	files     map[partKey]spool.Snapshot
	workers   []*worker
	ledger    []uint8            // per sequence: the worker that last judged it live
	reached   map[partKey]uint64 // the furthest any state of a key got
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

func newWorld(cfg *exploreConfig) *world {
	opts := []ServerOption{WithReplayBuffer(cfg.window)}
	if cfg.hop {
		opts = append(opts, withAdopting())
	}
	l := newFeedLog(opts...)
	return &world{cfg: cfg, srv: &Server{log: l, ctl: newTestPlane(l)},
		files: map[partKey]spool.Snapshot{}, reached: map[partKey]uint64{}}
}

func newTestPlane(l *feedLog) plane {
	return plane{log: l, snaps: map[partKey]spool.Snapshot{}, owners: map[partKey]string{}}
}

// clone copies the world: the log's tail shares its immutable chunks.
func (w *world) clone() *world {
	l := w.srv.log
	n := newFeedLog(withOpts(l.opt))
	n.state.Store(l.state.Load())
	n.buf = slices.Clone(l.buf[l.lo:])
	n.head, n.next = l.head, l.next
	n.barriers = maps.Clone(l.barriers)
	for id, r := range l.readers {
		c := *r
		c.l = n
		if r.conn != nil {
			c.conn = nopCloser{}
		}
		n.readers[id] = &c
	}
	p := w.srv.ctl
	c := &world{cfg: w.cfg, srv: &Server{log: n, ctl: plane{log: n, cuts: slices.Clone(p.cuts), snaps: maps.Clone(p.snaps), owners: maps.Clone(p.owners)}},
		feed: slices.Clip(w.feed), reserved: slices.Clip(w.reserved), confirmed: slices.Clip(w.confirmed), notes: slices.Clip(w.notes),
		files: maps.Clone(w.files), ledger: slices.Clone(w.ledger), reached: maps.Clone(w.reached)}
	for _, wk := range w.workers {
		cp := *wk
		cp.state = slices.Clone(wk.state)
		c.workers = append(c.workers, &cp)
	}
	return c
}

func withOpts(o serverOptions) ServerOption { return func(p *serverOptions) { *p = o } }

func owned(s uint64, part, parts int) bool {
	return osn.Partition(osn.AccountID(s), parts) == part
}

// shapeAt is the shape in force at sequence s: from the initial shape,
// the events after a record out of the shape in force belong to the
// record's new shape.
func (w *world) shapeAt(s uint64) int {
	cur := w.cfg.shapes[0]
	for i, e := range w.feed {
		if uint64(i+1) >= s {
			break
		}
		if e.rec && e.from == cur {
			cur = e.to
		}
	}
	return cur
}

// cur is the shape the next sequence belongs to, reserved records
// counted.
func (w *world) cur() int {
	cur := w.shapeAt(uint64(len(w.feed) + 1))
	for _, c := range w.reserved {
		if c.from == cur {
			cur = c.to
		}
	}
	return cur
}

// appeared reports whether shape parts was ever in force or is being
// cut over to.
func (w *world) appeared(parts int) bool {
	if parts == w.cfg.shapes[0] {
		return true
	}
	for _, e := range w.feed {
		if e.rec && e.to == parts {
			return true
		}
	}
	for _, c := range w.reserved {
		if c.to == parts {
			return true
		}
	}
	return false
}

// newestOut is the barrier of the newest record out of parts, published
// or reserved, 0 if none.
func (w *world) newestOut(parts int) (b uint64) {
	for i, e := range w.feed {
		if e.rec && e.from == parts {
			b = uint64(i + 1)
		}
	}
	for _, c := range w.reserved {
		if c.from == parts {
			b = c.barrier
		}
	}
	return b
}

// legit reports whether the fence lets a worker of shape parts resume
// at from: its shape is the one in force (a resume below the current
// generation re-derives history, as a replay does), or from is at or
// below the newest record out of the shape, where the worker retires. A
// shape no record retired has no fence.
func (w *world) legit(parts int, from uint64) bool {
	b := w.newestOut(parts)
	return w.cur() == parts || b == 0 || from <= b
}

func (w *world) live(part, parts int) *worker {
	for _, wk := range w.workers {
		if wk.conn && wk.k.Part == part && wk.k.Parts == parts {
			return wk
		}
	}
	return nil
}

func (w *world) byID(id uint8) *worker { return w.workers[id-1] }

// interval reports whether wk's save interval firing now would offer
// anything new: an offer of the state the broker holds changes nothing.
func (wk *worker) interval() bool {
	return wk.k.Due(wk.k.lastSave.Add(wk.k.Every)) && wk.k.Applied() > wk.k.durable
}

func (w *world) events() []event {
	var evs []event
	// While a record is reserved, every later sequence waits for it to
	// publish: nothing else is sequenced meanwhile.
	full := len(w.feed) >= maxFeed || len(w.reserved) > 0
	if !full {
		evs = append(evs, event{kind: evPub})
	}
	cur := w.cur()
	for _, to := range w.cfg.shapes {
		switch {
		case to == cur || full:
		case !w.cfg.hop:
			evs = append(evs, event{kind: evPrep, a: cur, b: to})
		default:
			evs = append(evs, event{kind: evLearn, a: cur, b: to})
		}
	}
	if len(w.reserved) > 0 {
		evs = append(evs, event{kind: evPubCut}, event{kind: evRetry})
	} else if w.cfg.window > maxFeed && !w.cfg.hop {
		evs = append(evs, event{kind: evRestart})
	}
	for _, k := range w.cfg.shapes {
		if !w.appeared(k) {
			continue
		}
		start, offer := false, false
		for p := 0; p < k; p++ {
			wk := w.live(p, k)
			start = start || wk == nil
			offer = offer || wk != nil && wk.interval()
		}
		if start {
			evs = append(evs, event{kind: evStart, a: k})
		}
		if offer {
			evs = append(evs, event{kind: evOffer, a: k})
		}
		if w.live(0, k) != nil {
			evs = append(evs, event{kind: evKill, a: k})
			if w.cfg.blip {
				evs = append(evs, event{kind: evBlip, a: k})
			}
		} else {
			evs = append(evs, event{kind: evReplay, a: k})
		}
		for _, wk := range w.workers {
			if wk.late && wk.k.Part == 0 && wk.k.Parts == k {
				evs = append(evs, event{kind: evLate, a: k})
				break
			}
		}
	}
	return evs
}

// apply runs e, resumes the workers that lost their connection at the
// step before, and runs the deliveries; it returns the first invariant
// that breaks ("" if none). check arms the checks that cost more than
// the step (a retried prepare's early-confirmation probe); a rebuild of
// an explored path passes false.
func (w *world) apply(e event, check bool) string {
	var lost []*worker
	for _, wk := range w.workers {
		if wk.lost {
			lost = append(lost, wk)
		}
	}
	l := w.srv.log
	switch e.kind {
	case evPub:
		if _, err := l.reserve(1, 0); err != nil {
			panic(err)
		}
		w.push(entry{})
	case evPrep:
		c, fresh, why := w.srv.ctl.prepare(e.a, e.b)
		switch {
		case why != "":
		case fresh:
			w.reserved = append(w.reserved, c)
		default:
			w.confirmed = append(w.confirmed, c)
		}
	case evPubCut:
		w.publishCut()
	case evRetry:
		c := w.reserved[0]
		done := make(chan *frame, 1)
		if check {
			go func() { done <- w.srv.ctlPrepare(nil, frame{Parts: c.from, NParts: c.to}) }()
			for i := 0; i < 64 && len(done) == 0; i++ {
				runtime.Gosched()
			}
			if len(done) > 0 {
				<-done
				w.publishCut()
				return fmt.Sprintf("a retried prepare confirmed barrier %d before its record was published", c.barrier)
			}
		}
		w.publishCut()
		if check {
			if rep := <-done; rep.Err != "" || rep.Barrier != c.barrier {
				return fmt.Sprintf("a retried prepare of %d→%d answered %+v, want barrier %d", c.from, c.to, rep, c.barrier)
			}
		}
	case evLearn:
		seq := uint64(len(w.feed) + 1)
		if first, err := l.reserve(1, seq); err != nil || first != seq {
			return fmt.Sprintf("a relay hop could not adopt a record at %d: %v", seq, err)
		}
		c := w.srv.ctl.install(e.a, e.b, seq)
		w.notes = append(w.notes, spool.Cutover{From: c.from, To: c.to, Barrier: c.barrier})
		w.push(entry{rec: true, from: e.a, to: e.b})
	case evRestart:
		if why := w.restart(check); why != "" {
			return why
		}
	case evStart:
		// A start of the shape in force, with no cut into it pending,
		// admits every free key: a held snapshot the feed lost is passed
		// over for a cold start.
		_, pend, _ := w.srv.ctl.shape(e.a)
		inForce := e.a == w.cur() && pend == nil && len(w.reserved) == 0
		for p := 0; p < e.a; p++ {
			if w.live(p, e.a) != nil {
				continue
			}
			why, reject := w.dial(p, e.a, false)
			if why == "" && reject != nil && inForce {
				why = fmt.Sprintf("a start of shape %d, the one in force, left %d/%d without a worker: %s", e.a, p, e.a, reject.Err)
			}
			if why != "" {
				return why
			}
		}
	case evOffer:
		for _, wk := range w.workers {
			if wk.conn && wk.k.Parts == e.a && wk.interval() {
				w.save(wk)
			}
		}
	case evKill:
		wk := w.live(0, e.a)
		wk.alive, wk.conn, wk.late = false, false, wk.k.offers() && wk.k.Applied() > wk.k.durable
		w.detach(wk)
	case evLate:
		for _, wk := range w.workers {
			if wk.late && wk.k.Part == 0 && wk.k.Parts == e.a {
				wk.late = false
				w.offer(wk)
				break
			}
		}
	case evReplay:
		if why, _ := w.dial(0, e.a, true); why != "" {
			return why
		}
	case evBlip:
		// Every delivery runs to the head, so the client's cursor is
		// the state's.
		wk := w.live(0, e.a)
		wk.conn, wk.lost = false, true
		w.detach(wk)
		w.save(wk)
		wk.k.Lost(wk.k.Applied())
	}
	for _, wk := range lost {
		if why := w.resume(wk); why != "" {
			return why
		}
	}
	return w.deliver()
}

// resume sends the hello of wk, which lost its connection: a resume of
// its session at its kernel's resume point. It must be admitted exactly
// there, and only where its shape still judges; on a tail that never
// drops, only another worker holding the key may refuse it.
func (w *world) resume(wk *worker) string {
	at := wk.k.hello().Resume
	welcome, _, reject, end := w.connect(wk)
	wk.lost, wk.conn, wk.alive = reject != nil && end == nil, reject == nil, end == nil
	switch {
	case reject == nil && welcome.From != at:
		return fmt.Sprintf("%s resumed at %d, but its kernel resumes at %d", wk.k.session, welcome.From, at)
	case reject == nil && !w.legit(wk.k.Parts, at):
		return fmt.Sprintf("%s (%s) resumed at %d, but shape %d is retired there", wk.key(), wk.k.session, at, wk.k.Parts)
	case reject != nil && reject.Class != classHeld && w.cfg.window > maxFeed && w.legit(wk.k.Parts, at):
		return fmt.Sprintf("%s's resume at %d was refused (%s), though it judges only shape %d's events from there", wk.k.session, at, reject.Err, wk.k.Parts)
	}
	return ""
}

// push publishes the reserved next sequence, holding e.
func (w *world) push(e entry) {
	seq := uint64(len(w.feed) + 1)
	w.feed = append(w.feed, e)
	w.ledger = append(w.ledger, 0)
	w.srv.log.publish([]*chunk{{first: seq, last: seq, n: 1, cursor: seq}})
}

// publishCut is a fresh prepare's publish half: the note beside the
// spool, then the record, which confirms the prepare.
func (w *world) publishCut() {
	c := w.reserved[0]
	w.reserved = w.reserved[1:]
	w.notes = append(w.notes, spool.Cutover{From: c.from, To: c.to, Barrier: c.barrier})
	w.push(entry{rec: true, from: c.from, to: c.to})
	w.confirmed = append(w.confirmed, c)
}

// connect sends wk's kernel's hellos to the plane until one is
// admitted, which the kernel takes, or the kernel stops: a refusal it
// waits out (a held key, a pending cut) ends this attempt, as a spare's
// wait does, one it answers with another hello (a cold start) sends
// that at once, and end is set when the refusal ends the worker.
func (w *world) connect(wk *worker) (welcome frame, snaps []spool.Snapshot, reject *frame, end error) {
	for {
		hello := wk.k.hello()
		if hello.Session == "" {
			hello.Session = "w" + strconv.Itoa(int(wk.id))
		}
		hello.Part, hello.Parts = wk.k.Part, wk.k.Parts
		_, _, welcome, snaps, reject = w.srv.ctl.admit(hello, nopCloser{})
		if reject == nil {
			var seq uint64
			if len(snaps) > 0 {
				seq = snaps[0].Seq
			}
			wk.k.admitted(hello.Session, welcome.From, welcome.Barrier, seq, len(snaps), time.Time{})
			return welcome, snaps, nil, nil
		}
		wait, end := wk.k.Refused(rejected(frameHello, reject))
		if !wait || wk.k.hello().Adopt == hello.Adopt {
			return welcome, nil, reject, end
		}
	}
}

// dial starts a worker on part/parts: a handoff worker adopting its
// key's state, or, with replay, one that replays the feed from sequence
// 1 and keeps no state at the broker. A dial the kernel does not get
// admitted opens nothing, and returns the refusal.
func (w *world) dial(part, parts int, replay bool) (string, *frame) {
	wk := &worker{id: uint8(len(w.workers) + 1), alive: true, conn: true,
		k: Kernel{Part: part, Parts: parts, Handoff: !replay, FromStart: replay, Every: time.Hour}}
	welcome, snaps, reject, _ := w.connect(wk)
	if reject != nil {
		return "", reject
	}
	w.workers = append(w.workers, wk)
	k, from, pos := wk.key(), welcome.From, wk.k.Applied()
	wk.cold = pos
	if replay {
		wk.history, wk.cold = uint64(len(w.feed)), 0
	}
	switch {
	case len(snaps) == 1:
		if snaps[0].Seq != pos {
			return fmt.Sprintf("%s adopted 1 snapshot at %d and resumes at %d", k, snaps[0].Seq, from), nil
		}
		wk.state, wk.cold = decode(snaps[0].Data)
	case len(snaps) > 1:
		wk.state = make([]uint8, pos)
		wk.cold = 0
		for _, sn := range snaps {
			if sn.Seq != pos {
				return fmt.Sprintf("%s adopted a cut of %d snapshots with one at %d, resuming at %d", k, len(snaps), sn.Seq, from), nil
			}
		}
		for s := uint64(1); s <= pos; s++ {
			if w.feed[s-1].rec || !owned(s, part, parts) {
				continue
			}
			old, cold := decode(snaps[osn.Partition(osn.AccountID(s), len(snaps))].Data)
			wk.state[s-1], wk.cold = old[s-1], max(wk.cold, cold)
		}
	}
	if !w.legit(parts, from) {
		return fmt.Sprintf("%s admitted at %d (welcome barrier %d), but shape %d is retired there: it would judge shape %d's events", k, from, wk.k.reshaped, parts, w.shapeAt(from)), nil
	}
	if wk.cold > 0 && len(snaps) == 0 && w.reached[k] < w.cutInto(parts) {
		return fmt.Sprintf("%s started cold at %d past the cut into shape %d at %d: shape %d's events after the cut go unjudged", k, from, parts, w.cutInto(parts), parts), nil
	}
	w.reached[k] = max(w.reached[k], pos)
	if wk.k.Cut() {
		w.save(wk)
	}
	return "", nil
}

// established is the barrier of the newest published record into parts
// past which every key of the shape has had state (its generation
// took over), 0 if none: a record out of the shape below it retired an
// earlier generation.
func (w *world) established(parts int) (b uint64) {
	for i, e := range w.feed {
		at := uint64(i + 1)
		if !e.rec || e.to != parts {
			continue
		}
		all := true
		for p := 0; p < parts; p++ {
			all = all && w.reached[partKey{part: p, parts: parts}] >= at
		}
		if all {
			b = at
		}
	}
	return b
}

// cutInto is the barrier of the newest published record into parts.
func (w *world) cutInto(parts int) (b uint64) {
	for i, e := range w.feed {
		if e.rec && e.to == parts {
			b = uint64(i + 1)
		}
	}
	return b
}

// save is a save of wk's kernel: an offer, when the kernel makes one.
func (w *world) save(wk *worker) {
	if wk.k.Save(time.Time{}) {
		w.offer(wk)
	}
}

// offer is ctlOffer, its spool write on the model spool, of wk's state
// at its kernel's applied sequence (a dead worker's late offer names its
// own session, as its in-flight connection did). A confirmed offer is
// acked on wk's connection.
func (w *world) offer(wk *worker) {
	seq, k := wk.k.Applied(), wk.key()
	req := frame{Session: wk.k.session, Part: k.part, Parts: k.parts, Seq: seq}
	if w.srv.ctl.offerRefusal(req) != "" {
		return
	}
	data := encode(wk.state, wk.cold, seq)
	if f, ok := w.files[k]; !ok || f.Seq <= seq {
		w.files[k] = spool.Snapshot{Part: k.part, Parts: k.parts, Seq: seq, Data: data}
	}
	retired, why := w.srv.ctl.offer(req, data)
	if retired > 0 {
		maps.DeleteFunc(w.files, func(k partKey, _ spool.Snapshot) bool { return k.parts == retired })
	}
	if why != "" {
		return
	}
	w.reached[k] = max(w.reached[k], seq)
	wk.k.Offered(seq)
	if r := w.srv.log.readers[wk.k.session]; r != nil && wk.conn {
		r.ack(seq)
	}
}

func encode(state []uint8, cold, pos uint64) []byte {
	data := make([]byte, 1+pos)
	data[0] = uint8(cold)
	copy(data[1:], state)
	return data
}

func decode(data []byte) ([]uint8, uint64) {
	return slices.Clone(data[1:]), uint64(data[0])
}

// detach drops wk's connection in the log, as its ack reader does when
// the connection ends.
func (w *world) detach(wk *worker) {
	if r := w.srv.log.readers[wk.k.session]; r != nil {
		r.detach(r.gen)
	}
}

// event is the feed's sequence s as a worker receives it.
func (w *world) event(s uint64) osn.Event {
	if e := w.feed[s-1]; e.rec {
		return osn.Event{Type: osn.EvCutover, Actor: osn.AccountID(e.from), Target: osn.AccountID(e.to)}
	}
	return osn.Event{Actor: osn.AccountID(s)}
}

// deliver runs every connected worker over the feed to its head: its
// client receives the feed past its cursor as one batch, the kernel
// trims it (and retires the worker at a record), and the worker judges
// the events its key owns; then it acks, saves or retires as its kernel
// says.
func (w *world) deliver() string {
	l, head, evs := w.srv.log, uint64(len(w.feed)), make([]osn.Event, 0, maxFeed)
	for _, wk := range w.workers {
		r := l.readers[wk.k.session]
		if !wk.conn || r == nil {
			continue
		}
		k := wk.key()
		evs = evs[:0]
		for s := r.sent + 1; s <= head; s++ {
			evs = append(evs, w.event(s))
		}
		l.mu.Lock()
		r.sent = max(r.sent, head)
		l.mu.Unlock()
		drop, n, _ := wk.k.batch(evs, nil, head)
		for i := drop; i < n; i++ {
			s := head - uint64(len(evs)-1-i)
			for uint64(len(wk.state)) < s {
				wk.state = append(wk.state, 0)
			}
			switch {
			case w.feed[s-1].rec || !owned(s, k.part, k.parts):
				continue
			case wk.state[s-1] != 0:
				return fmt.Sprintf("%s (%s) judged event %d into a state that already holds it", k, wk.k.session, s)
			case s <= wk.history:
				wk.state[s-1] = replayed
				continue
			}
			if shape := w.shapeAt(s); shape != k.parts {
				return fmt.Sprintf("%s (%s) judged event %d, which belongs to shape %d", k, wk.k.session, s, shape)
			}
			if prev := w.ledger[s-1]; prev != 0 && prev != wk.id && w.byID(prev).alive {
				return fmt.Sprintf("event %d judged twice: by %s and by %s, both alive", s, w.byID(prev).k.session, wk.k.session)
			}
			w.ledger[s-1], wk.state[s-1] = wk.id, wk.id
		}
		switch {
		case wk.retired():
			if b := w.established(k.parts); b > wk.k.barrier {
				e := w.feed[wk.k.barrier-1]
				return fmt.Sprintf("%s (%s) retired at the record %d→%d at %d, but every key of shape %d took state from the cut back into it at %d", k, wk.k.session, e.from, e.to, wk.k.barrier, k.parts, b)
			}
			w.save(wk)
			wk.conn = false
			w.detach(wk)
		case !wk.k.manual():
			r.ack(r.sent)
		}
	}
	return ""
}

// restart kills the broker and reopens it on the model spool: a new log
// seated at the spooled feed's end (the spool still serves every
// sequence) and a plane reloaded from the notes and snapshot files. The
// reopened broker must answer as the live one would; then every
// connected worker, whose save found the broker down, resumes at its
// kernel's resume point, or ends if it is refused.
func (w *world) restart(check bool) string {
	var before string
	if check {
		before = w.answers()
	}
	old := w.srv.log
	l := newFeedLog(withOpts(old.opt))
	l.buf = slices.Clone(old.buf[old.lo:])
	l.head, l.next = old.head, old.next
	l.state.Store(old.head)
	w.srv = &Server{log: l, ctl: newTestPlane(l)}
	var files []spool.Snapshot
	for _, k := range sortedKeys(w.files) {
		files = append(files, w.files[k])
	}
	w.srv.ctl.reload(w.notes, files)
	if check {
		if after := w.answers(); after != before {
			return fmt.Sprintf("the reopened broker answers differently:\nlive:     %s\nreopened: %s", before, after)
		}
	}
	held := w.srv.ctl.cuts
	for _, c := range w.confirmed {
		if !slices.Contains(held, c) {
			return fmt.Sprintf("the reopened broker lost the confirmed cut %d→%d at %d", c.from, c.to, c.barrier)
		}
	}
	for _, wk := range w.workers {
		wk.late = false
		if wk.conn {
			wk.k.Save(time.Time{}) // the dead broker refuses it
			wk.k.Lost(wk.k.Applied())
			if why := w.resume(wk); why != "" {
				return why
			}
		}
	}
	return ""
}

// answers is what the broker would answer next, as text: every gate
// (adopt, fresh, and resumes around each barrier) on every key, every
// prepare (on a copy of the plane), and the audit with the held
// snapshots. Owners are left out: a restart forgets them by design, and
// each worker's resume makes it its key's owner again.
func (w *world) answers() string {
	p := &w.srv.ctl
	var b []byte
	num := func(vs ...uint64) {
		for _, v := range vs {
			b = append(strconv.AppendUint(b, v, 10), ',')
		}
	}
	resumes := []uint64{0}
	for _, c := range p.cuts {
		resumes = append(resumes, c.barrier, c.barrier+1)
	}
	for _, k := range w.cfg.shapes {
		for part := 0; part < k; part++ {
			for i, r := range resumes {
				resume, snaps, _, reject := p.gate(frame{Part: part, Parts: k, Resume: r, Adopt: i == 0})
				num(uint64(part), uint64(k), r, resume)
				for _, sn := range snaps {
					num(uint64(sn.Part), uint64(sn.Parts), sn.Seq)
				}
				if reject != nil {
					b = append(append(append(b, reject.Class...), reject.Err...), ';')
				}
			}
		}
		for _, to := range w.cfg.shapes {
			l := newFeedLog(withOpts(p.log.opt))
			l.state.Store(p.log.state.Load())
			c, fresh, why := (&plane{log: l, cuts: slices.Clip(p.cuts), snaps: p.snaps, owners: p.owners}).prepare(k, to)
			num(uint64(c.from), uint64(c.to), c.barrier)
			b = append(append(strconv.AppendBool(b, fresh), why...), ';')
		}
	}
	snaps, reb := p.stats()
	for _, sn := range snaps {
		num(uint64(sn.Part), uint64(sn.Parts), sn.Seq)
	}
	for _, r := range reb {
		num(uint64(r.From), uint64(r.To), r.Barrier)
		b = strconv.AppendBool(b, r.Committed)
	}
	return string(b)
}

// check runs the invariants that hold between steps.
func (w *world) check(prev []bool) string {
	p := &w.srv.ctl
	done := p.committed()
	for i, c := range p.cuts {
		if i < len(prev) && prev[i] && !done[i] {
			return fmt.Sprintf("cut %d→%d at %d committed, and is uncommitted again", c.from, c.to, c.barrier)
		}
		if done[i] && (i >= len(prev) || !prev[i]) {
			for k := 0; k < c.to; k++ {
				if sn := p.snaps[partKey{part: k, parts: c.to}]; sn.Seq < c.barrier {
					return fmt.Sprintf("cut %d→%d at %d committed while %d/%d holds state at %d", c.from, c.to, c.barrier, k, c.to, sn.Seq)
				}
			}
		}
	}
	held := map[partKey]int{}
	for _, wk := range w.workers {
		k := wk.key()
		if wk.conn {
			if held[k]++; held[k] > 1 {
				return fmt.Sprintf("%s has two connected workers", k)
			}
		}
		if wk.alive && !wk.retired() {
			if why := w.exact(k, wk.state, wk.cold, wk.k.Applied()); why != "" {
				return fmt.Sprintf("%s's live state: %s", wk.k.session, why)
			}
		}
	}
	for _, k := range sortedKeys(p.snaps) {
		sn := p.snaps[k]
		state, cold := decode(sn.Data)
		if why := w.exact(k, state, cold, sn.Seq); why != "" {
			return fmt.Sprintf("the snapshot held for %s at %d: %s", k, sn.Seq, why)
		}
	}
	// The fence, probed: a fresh join only of the shape in force, and
	// a resume around the newest record out of a shape only where it
	// reaches that record, or within the shape in force. A fresh join of the
	// shape in force is admitted once no cut into it is pending.
	cur := w.cur()
	for _, k := range w.cfg.shapes {
		_, pend, _ := p.shape(k)
		probes := []uint64{0}
		if b := w.newestOut(k); b > 0 {
			probes = append(probes, b, b+1)
		}
		for _, r := range probes {
			resume, _, _, reject := p.gate(frame{Part: 0, Parts: k, Resume: r})
			from := resume
			if from == 0 {
				from = uint64(len(w.feed)+len(w.reserved)) + 1
			}
			switch {
			case reject == nil && !w.legit(k, from):
				return fmt.Sprintf("a hello on 0/%d resuming at %d would be admitted, but shape %d is retired there", k, r, k)
			case reject != nil && r == 0 && k == cur && pend == nil && len(w.reserved) == 0:
				return fmt.Sprintf("a fresh join of shape %d, the one in force, is refused: %s", k, reject.Err)
			}
		}
	}
	return ""
}

// exact checks a state of key k through pos against the feed: it holds
// exactly the events k owns, each judged by the judge the ledger names
// (or replayed), except that a cold state may miss events at or below
// cold.
func (w *world) exact(k partKey, state []uint8, cold, pos uint64) string {
	for s := uint64(1); s <= pos && s <= uint64(len(state)); s++ {
		j, want := state[s-1], !w.feed[s-1].rec && owned(s, k.part, k.parts)
		switch {
		case !want && j != 0:
			return fmt.Sprintf("holds event %d, which it does not own", s)
		case want && j == 0 && s > cold:
			return fmt.Sprintf("misses event %d", s)
		case want && j != 0 && j != replayed && j != w.ledger[s-1]:
			return fmt.Sprintf("holds event %d as judged by w%d, but w%d's judgment of it stands", s, j, w.ledger[s-1])
		}
	}
	return ""
}

func (k partKey) String() string { return fmt.Sprintf("%d/%d", k.part, k.parts) }

// hash is the world's identity for deduplication.
func (w *world) hash(seed maphash.Seed) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	b := make([]byte, 0, 512)
	num := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	for _, e := range w.feed {
		num(uint64(e.from), uint64(e.to))
	}
	b = append(b, w.ledger...)
	for _, c := range append(append(slices.Clone(w.reserved), w.confirmed...), w.srv.ctl.cuts...) {
		num(uint64(c.from), uint64(c.to), c.barrier)
	}
	num(uint64(len(w.notes)))
	for _, k := range sortedKeys(w.files) {
		num(uint64(k.part), uint64(k.parts), w.files[k].Seq)
	}
	for _, k := range sortedKeys(w.srv.ctl.snaps) {
		sn := w.srv.ctl.snaps[k]
		num(uint64(k.part), uint64(k.parts), sn.Seq)
		b = append(b, sn.Data...)
	}
	for _, k := range sortedKeys(w.srv.ctl.owners) {
		b = append(append(b, byte(k.part), byte(k.parts)), w.srv.ctl.owners[k]...)
	}
	for _, wk := range w.workers {
		flags := uint64(0)
		for i, f := range []bool{wk.alive, wk.conn, wk.lost, wk.late, wk.k.cut} {
			if f {
				flags |= 1 << i
			}
		}
		// A kernel's last save enters none of its decisions (its interval
		// fires only on offer events). Its resume point counts only while
		// it is lost, and the rest of its hello state only before it is
		// admitted, which the explorer's workers always are. A reader's
		// acks would move only a spool's retention, which the model spool
		// does not keep.
		k := &wk.k
		num(flags, k.applied, k.reshaped, k.durable, k.barrier, wk.history, wk.cold)
		if wk.lost {
			num(k.resume)
		}
		b = append(b, wk.state...)
		if r := w.srv.log.readers[k.session]; r != nil {
			num(1, r.sent, uint64(r.gen))
		}
	}
	num(w.srv.log.head)
	h.Write(b)
	return h.Sum64()
}

func sortedKeys[V any](m map[partKey]V) []partKey {
	keys := make([]partKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b partKey) int { return a.parts*100 + a.part - b.parts*100 - b.part })
	return keys
}

// node is one explored state: the event that reached it from its
// parent's state.
type node struct {
	parent int32 // -1: a seed
	seed   int16
	ev     event
}

// explore searches breadth-first from every seed to depth, dedupes by
// state hash, and returns the number of states it reached, or the
// shortest event sequence to the first violation and the violation.
// Each level's states are expanded in parallel, one GOMAXPROCS worth of
// goroutines, and merged in frontier order, so the sequence reported
// is the first shortest one.
func explore(cfg exploreConfig, depth int) (int, []string, string) {
	seed := maphash.MakeSeed()
	seen := map[uint64]bool{}
	var nodes []node
	path := func(i int) []event {
		var evs []event
		for ; nodes[i].parent >= 0; i = int(nodes[i].parent) {
			evs = append(evs, nodes[i].ev)
		}
		slices.Reverse(evs)
		return append(slices.Clone(cfg.seeds[nodes[i].seed]), evs...)
	}
	names := func(evs []event) []string {
		var s []string
		for _, e := range evs {
			s = append(s, e.String())
		}
		return s
	}
	var frontier []int
	for i, s := range cfg.seeds {
		w := newWorld(&cfg)
		for j, e := range s {
			prev := w.srv.ctl.committed()
			why := w.apply(e, true)
			if why == "" {
				why = w.check(prev)
			}
			if why != "" {
				return len(seen), names(s[:j+1]), why
			}
		}
		if h := w.hash(seed); !seen[h] {
			seen[h] = true
			nodes = append(nodes, node{parent: -1, seed: int16(i)})
			frontier = append(frontier, len(nodes)-1)
		}
	}
	type succ struct {
		ev  event
		h   uint64
		why string
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		out := make([][]succ, len(frontier))
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := runtime.GOMAXPROCS(0); g > 0; g-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int(next.Add(1)) - 1; j < len(frontier); j = int(next.Add(1)) - 1 {
					base := newWorld(&cfg)
					for _, e := range path(frontier[j]) {
						base.apply(e, false)
					}
					for _, e := range base.events() {
						w := base.clone()
						prev := w.srv.ctl.committed()
						why := w.apply(e, true)
						if why == "" {
							why = w.check(prev)
						}
						if h := w.hash(seed); why != "" || !seen[h] {
							out[j] = append(out[j], succ{ev: e, h: h, why: why})
						}
					}
				}
			}()
		}
		wg.Wait()
		var grown []int
		for j, ss := range out {
			for _, s := range ss {
				if s.why != "" {
					return len(seen), names(append(path(frontier[j]), s.ev)), s.why
				}
				if !seen[s.h] {
					seen[s.h] = true
					nodes = append(nodes, node{parent: int32(frontier[j]), ev: s.ev})
					grown = append(grown, len(nodes)-1)
				}
			}
		}
		frontier = grown
	}
	return len(seen), nil, ""
}
