package agents

import (
	"fmt"

	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// traits are the hidden per-account behavioural parameters. Detectors
// never see them; they exist only to generate behaviour.
type traits struct {
	friendliness float64 // P(accept acquaintance request)
	careless     float64 // base P(accept stranger request)
	ratePerHour  float64 // invitation rate
	activeUntil  sim.Time
}

// Population wires the OSN, the event engine, and the agent models
// into one runnable scenario. Build one with NewPopulation, then call
// Bootstrap, StartNormals, LaunchSybils and Run.
type Population struct {
	P   Params
	Net *osn.Network
	Eng *sim.Engine
	R   *stats.Rand

	Normals []osn.AccountID
	Sybils  []osn.AccountID

	traits []traits
	tools  []*Tool

	// ObsStart is when the observation window (and agent activity)
	// begins: the end of the bootstrap history.
	ObsStart sim.Time
	// End is when agents stop scheduling new activity.
	End sim.Time
}

// NewPopulation creates an empty population with the given seed.
func NewPopulation(seed int64, p Params) *Population {
	return &Population{
		P:   p,
		Net: osn.NewNetwork(),
		Eng: &sim.Engine{},
		R:   stats.NewRand(seed),
	}
}

// Bootstrap builds the pre-attack background network of nNormal users
// and marks the observation start.
func (pop *Population) Bootstrap(nNormal int) {
	span := sim.Time(pop.P.BootstrapSpanDays) * sim.TicksPerDay
	pop.ObsStart = span
	pop.Normals = BuildBackground(pop.Net, pop.R.Fork(), pop.P, nNormal, span)
	for range pop.Normals {
		pop.traits = append(pop.traits, traits{})
	}
	r := pop.R.Fork()
	for i := range pop.Normals {
		pop.traits[i] = traits{
			friendliness: r.Beta(pop.P.FriendlinessAlpha, pop.P.FriendlinessBeta),
			careless:     r.Beta(pop.P.CarelessAlpha, pop.P.CarelessBeta),
			ratePerHour:  r.LogNormal(pop.P.NormalRateMuLog, pop.P.NormalRateSigmaLog),
		}
	}
	pop.tools = []*Tool{
		NewTool("Renren Marketing Assistant V1.0", 0.70, 120, pop.R.Fork()),
		NewTool("Renren Super Node Collector V1.0", 0.95, 60, pop.R.Fork()),
		NewTool("Renren Almighty Assistant V5.8", 0.50, 200, pop.R.Fork()),
	}
	for _, tool := range pop.tools {
		tool.Fresh = func(id osn.AccountID) bool {
			return pop.Net.Account(id).CreatedAt >= pop.ObsStart
		}
		tool.FreshTargetP = pop.P.FreshTargetP
	}
}

// StartNormals schedules every normal user's invitation and inbox
// loops over [ObsStart, End]. Call after setting End (via Run's
// duration) — in practice use RunFor which handles ordering.
func (pop *Population) startNormals() {
	for _, id := range pop.Normals {
		a := &normalAgent{pop: pop, id: id, r: pop.R.Fork()}
		a.start()
	}
}

// LaunchSybils creates n Sybil accounts with arrivals staggered
// uniformly over the first `over` ticks of the observation window.
// Each account is assigned to a Table 3 tool per the configured market
// share and runs until its active lifetime expires.
func (pop *Population) LaunchSybils(n int, over sim.Time) {
	r := pop.R.Fork()
	for i := 0; i < n; i++ {
		arrive := pop.ObsStart + sim.Time(r.Int63n(int64(max(over, 1))))
		gender := osn.Male
		if drawGender(r, pop.P.SybilFemaleFrac) {
			gender = osn.Female
		}
		id := pop.Net.CreateAccount(gender, osn.Sybil, arrive)
		pop.Sybils = append(pop.Sybils, id)
		activeHours := r.LogNormal(pop.P.SybilActiveMuLog, pop.P.SybilActiveSigmaLog)
		tr := traits{
			ratePerHour: r.LogNormal(pop.P.SybilRateMuLog, pop.P.SybilRateSigmaLog),
			activeUntil: arrive + sim.Time(activeHours*float64(sim.TicksPerHour)),
		}
		pop.traits = append(pop.traits, tr)
		a := &sybilAgent{pop: pop, id: id, tool: pop.pickTool(r), r: pop.R.Fork()}
		pop.Eng.Schedule(arrive, a.start)
	}
}

func (pop *Population) pickTool(r *stats.Rand) *Tool {
	x := r.Float64()
	switch {
	case x < pop.P.ToolShareMarketing:
		return pop.tools[0]
	case x < pop.P.ToolShareMarketing+pop.P.ToolShareSuperNode:
		return pop.tools[1]
	default:
		return pop.tools[2]
	}
}

// RunFor runs the observation window for the given duration. It
// schedules normal agents, then drives the engine. It may be called
// once per population.
func (pop *Population) RunFor(d sim.Time) {
	if pop.End != 0 {
		panic("agents: RunFor called twice")
	}
	pop.End = pop.ObsStart + d
	// Advance the engine clock to the observation start so agent
	// scheduling is relative to it.
	pop.Eng.Run(pop.ObsStart)
	pop.startNormals()
	pop.Eng.Run(pop.End)
}

// trait returns the hidden traits of an account.
func (pop *Population) trait(id osn.AccountID) *traits { return &pop.traits[id] }

// CreatePage adds a commercial page account (passive; it neither sends
// invitations nor processes an inbox). Pages keep the hidden-trait
// table aligned with the account table.
func (pop *Population) CreatePage(at sim.Time) osn.AccountID {
	id := pop.Net.CreateAccount(osn.Female, osn.Page, at)
	pop.traits = append(pop.traits, traits{})
	return id
}

// genderFactor is the stranger-accept multiplier for a requester's
// profile gender (§2.2: Sybils use attractive female profiles because
// they convert better).
func (pop *Population) genderFactor(req osn.AccountID) float64 {
	if pop.Net.Account(req).Gender == osn.Female {
		return pop.P.FemaleBoost
	}
	return pop.P.MaleFactor
}

// popBoost raises a recipient's stranger-accept probability with its
// popularity (§3.4: popular users are "more likely to be open or
// careless about accepting friend requests from strangers").
func (pop *Population) popBoost(rec osn.AccountID) float64 {
	deg := float64(pop.Net.Graph().Degree(rec))
	f := deg / 50
	if f > 1 {
		f = 1
	}
	return pop.P.PopCarelessBoost * f
}

// decideAccept models the recipient's decision on a pending request.
//
// Requests from normal accounts model offline acquaintance: accepted
// with the recipient's friendliness. Requests from Sybil accounts are
// stranger requests: accepted with carelessness scaled by requester
// gender and recipient popularity, plus a small bonus when a mutual
// friend exists. The Kind check is part of the *behaviour generator*
// (real people invite people they know), not information any detector
// sees.
func (pop *Population) decideAccept(rec, req osn.AccountID) bool {
	tr := pop.trait(rec)
	if pop.Net.Account(rec).Kind == osn.Sybil {
		return true // Figure 3: Sybils accept essentially everything
	}
	if pop.Net.Account(req).Kind == osn.Normal {
		return pop.R.Bernoulli(tr.friendliness)
	}
	p := tr.careless * (1 + pop.popBoost(rec)) * pop.genderFactor(req)
	if hasMutualFriend(pop.Net.Graph(), rec, req) {
		p += 0.02
	}
	if p > 0.97 {
		p = 0.97
	}
	return pop.R.Bernoulli(p)
}

// hasMutualFriend reports whether a and b share at least one common
// neighbour.
func hasMutualFriend(g *graph.Graph, a, b osn.AccountID) bool {
	na, nb := g.Neighbors(a), g.Neighbors(b)
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	if len(na) == 0 {
		return false
	}
	set := make(map[graph.NodeID]struct{}, len(na))
	for _, e := range na {
		set[e.To] = struct{}{}
	}
	for _, e := range nb {
		if _, ok := set[e.To]; ok {
			return true
		}
	}
	return false
}

// Stats returns a one-line description of the population, useful in
// logs and examples.
func (pop *Population) Stats() string {
	g := pop.Net.Graph()
	return fmt.Sprintf("accounts=%d (normal=%d sybil=%d) edges=%d events=%d",
		pop.Net.NumAccounts(), len(pop.Normals), len(pop.Sybils), g.NumEdges(), len(pop.Net.Events()))
}
