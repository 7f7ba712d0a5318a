// Command spamcampaign runs the scenario that motivates the paper's
// §2.1 — Sybils
// befriend users to spam advertisements, both as direct messages and
// as blog entries that cascade through re-shares ("forwarded across
// multiple social hops much like retweets"). This example runs the
// campaign with and without the real-time detection pipeline attached
// (flag ⇒ ban, as deployed on Renren) and measures the spam reach.
package main

import (
	"fmt"

	"sybilwild"
	"sybilwild/internal/agents"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

type outcome struct {
	directSpam   int // ad messages delivered to new friends
	blogAudience int // distinct users reached by ad-blog cascades
	banned       int
}

func runCampaign(withDetector bool) outcome {
	pop := agents.NewPopulation(7, agents.DefaultParams())
	pop.Bootstrap(4000)
	r := stats.NewRand(1234)

	if withDetector {
		// Calibrate thresholds on a pilot campaign, like the paper's
		// offline testing phase before the August 2010 deployment.
		pilot := sybilwild.RunCampaign(sybilwild.CampaignConfig{
			Seed: 8, Normals: 3000, Sybils: 40, Hours: 400, Params: sybilwild.DefaultParams(),
		})
		rule := sybilwild.FitRule(pilot.GroundTruth())
		// The flag hook runs inside the pipeline's Observe, so it only
		// queues the ban; the observer registered next applies it,
		// before any later observer sees the triggering request.
		type ban struct {
			id osn.AccountID
			at int64
		}
		var pending []ban
		p := sybilwild.NewPipeline(rule, pop.Net, 5, func(id osn.AccountID, at int64) {
			pending = append(pending, ban{id, at})
		})
		pop.Net.RegisterObserver(p.Observe)
		pop.Net.RegisterObserver(func(osn.Event) {
			for len(pending) > 0 {
				b := pending[0]
				pending = pending[1:]
				pop.Net.Ban(b.id, b.at)
			}
		})
	}

	// Every Sybil publishes one ad blog the moment its account becomes
	// active; each accepted friendship delivers a direct ad message and
	// occasionally a re-share from a careless new friend, cascading the
	// ad outward.
	adBlog := map[osn.AccountID]osn.BlogID{}
	var out outcome
	pop.Net.RegisterObserver(func(ev osn.Event) {
		if ev.Type != osn.EvFriendAccept {
			return
		}
		// Actor accepted Target's request.
		sybil, friend := ev.Target, ev.Actor
		if pop.Net.Account(sybil).Kind != osn.Sybil {
			return
		}
		if _, ok := adBlog[sybil]; !ok {
			if id, err := pop.Net.PostBlog(sybil, ev.At); err == nil {
				adBlog[sybil] = id
			}
		}
		if pop.Net.SendMessage(sybil, friend, ev.At) == nil {
			out.directSpam++
		}
		// The new friend now sees the ad blog; a small fraction re-share
		// it, pushing the ad one hop beyond the Sybil's own audience.
		if id, ok := adBlog[sybil]; ok && r.Bernoulli(0.05) {
			_ = pop.Net.ShareBlog(friend, id, ev.At)
		}
	})

	pop.LaunchSybils(50, 100*sim.TicksPerHour)
	pop.RunFor(400 * sim.TicksPerHour)

	for _, id := range pop.Sybils {
		if pop.Net.Account(id).Banned {
			out.banned++
		}
	}
	for _, id := range adBlog {
		out.blogAudience += pop.Net.BlogAudience(id)
	}
	return out
}

func main() {
	before := runCampaign(false)
	after := runCampaign(true)
	fmt.Println("without real-time detector:")
	fmt.Printf("  direct ad messages delivered: %d\n", before.directSpam)
	fmt.Printf("  ad-blog cascade audience:     %d\n", before.blogAudience)
	fmt.Println("with real-time detector (flag ⇒ ban):")
	fmt.Printf("  direct ad messages delivered: %d (%.0f%% reduction)\n",
		after.directSpam, 100*(1-float64(after.directSpam)/float64(before.directSpam)))
	fmt.Printf("  ad-blog cascade audience:     %d (%.0f%% reduction)\n",
		after.blogAudience, 100*(1-float64(after.blogAudience)/float64(max(before.blogAudience, 1))))
	fmt.Printf("  sybils banned mid-campaign:   %d/50\n", after.banned)
}
