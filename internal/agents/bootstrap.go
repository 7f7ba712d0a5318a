package agents

import (
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// BuildBackground creates n normal accounts and grows the pre-attack
// friendship history among them. The background network is
// community-structured, mirroring Renren's origin as a college
// network: users join communities (schools, workplaces) grown with
// preferential attachment plus triad formation, and a sparse set of
// cross-community acquaintance edges ties the graph together.
//
// This structure matters for the reproduction: locally popular users
// in *different* communities are rarely interconnected, which is why a
// Sybil befriending popular strangers across the network ends up with
// a near-zero clustering coefficient (Figure 4) even though each
// community is internally clustered.
//
// Friendships created here carry no request events: they are history
// from before the observation window, like accounts predating the
// paper's measurement window. Each is logged as one osn.EvFriendship
// event (Network.AddFriendship), so the log opens with this genesis
// prefix and a consumer rebuilds the whole graph from the log alone.
// Edge timestamps are spread over the configured bootstrap span ending
// at `end`.
func BuildBackground(net *osn.Network, r *stats.Rand, p Params, n int, end sim.Time) []osn.AccountID {
	span := sim.Time(p.BootstrapSpanDays) * sim.TicksPerDay
	start := end - span
	if start < 0 {
		start = 0
	}
	csize := p.CommunitySize
	if csize < p.BootstrapM+2 {
		csize = p.BootstrapM + 2
	}
	ids := make([]osn.AccountID, 0, n)
	g := net.Graph()

	// Edge timestamps tick forward over the span as edges are created.
	totalEdges := n*p.BootstrapM + n/2 + 1
	step := span / sim.Time(totalEdges)
	if step < 1 {
		step = 1
	}
	t := start

	var communities [][]osn.AccountID
	for created := 0; created < n; {
		size := csize
		if n-created < size {
			size = n - created
		}
		members := growCommunity(net, g, r, p, size, start, span, &t, step, n, created)
		communities = append(communities, members)
		ids = append(ids, members...)
		created += size
	}

	// Cross-community acquaintance edges: each node independently gains
	// a small number of links into other communities.
	if len(communities) > 1 {
		for ci, members := range communities {
			for _, u := range members {
				if !r.Bernoulli(p.CrossCommunityP) {
					continue
				}
				cj := r.Intn(len(communities) - 1)
				if cj >= ci {
					cj++
				}
				other := communities[cj]
				v := other[r.Intn(len(other))]
				if net.AddFriendship(u, v, t) {
					t += step
				}
			}
		}
	}
	return ids
}

// growCommunity creates `size` accounts and grows a Holme–Kim style
// community among them: each arrival attaches to m targets chosen
// preferentially, closing a triangle with probability BootstrapTriadP.
func growCommunity(net *osn.Network, g *graph.Graph, r *stats.Rand, p Params, size int, start, span sim.Time, t *sim.Time, step sim.Time, totalN, createdSoFar int) []osn.AccountID {
	members := make([]osn.AccountID, size)
	for i := 0; i < size; i++ {
		// Creation time proportional to overall progress so "first k
		// friends by time" ordering is meaningful across communities.
		frac := float64(createdSoFar+i) / float64(totalN)
		at := start + sim.Time(frac*float64(span))
		gender := osn.Male
		if drawGender(r, p.NormalFemaleFrac) {
			gender = osn.Female
		}
		members[i] = net.CreateAccount(gender, osn.Normal, at)
	}
	m := p.BootstrapM
	if m < 1 {
		m = 1
	}
	seed := m + 1
	if seed > size {
		seed = size
	}
	// Preferential-attachment endpoint pool local to the community.
	endpoints := make([]osn.AccountID, 0, 2*size*m)
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			if net.AddFriendship(members[i], members[j], *t) {
				endpoints = append(endpoints, members[i], members[j])
				*t += step
			}
		}
	}
	for i := seed; i < size; i++ {
		u := members[i]
		var lastTarget osn.AccountID = -1
		added := 0
		for attempts := 0; added < m && attempts < 10*m+20; attempts++ {
			var v osn.AccountID
			if lastTarget >= 0 && r.Bernoulli(p.BootstrapTriadP) {
				nbrs := g.Neighbors(lastTarget)
				if len(nbrs) == 0 {
					continue
				}
				v = nbrs[r.Intn(len(nbrs))].To
			} else if len(endpoints) > 0 {
				v = endpoints[r.Intn(len(endpoints))]
			} else {
				v = members[r.Intn(i)]
			}
			if v == u || g.HasEdge(u, v) {
				continue
			}
			net.AddFriendship(u, v, *t)
			endpoints = append(endpoints, u, v)
			lastTarget = v
			added++
			*t += step
		}
	}
	return members
}
