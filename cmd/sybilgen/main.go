// Command sybilgen simulates a Sybil attack campaign against a
// Renren-like network and writes the resulting dataset to a directory
// for later analysis by sybildetect: the operational event log, the
// bootstrap history's friendships first, as a spool, beside a JSON
// sidecar holding the account table and the ground truth. It refuses
// a directory that already holds a spool.
//
// Usage:
//
//	sybilgen -out campaign -normals 8000 -sybils 100 -hours 400 -seed 1
package main

import (
	"flag"
	"fmt"
	"log"

	"sybilwild"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sybilgen: ")
	var (
		out     = flag.String("out", "campaign", "output dataset directory")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		normals = flag.Int("normals", 8000, "background user population")
		sybils  = flag.Int("sybils", 100, "Sybil accounts to launch")
		hours   = flag.Int64("hours", 400, "observation window (hours)")
	)
	flag.Parse()

	cfg := sybilwild.DefaultCampaign(*seed)
	cfg.Normals = *normals
	cfg.Sybils = *sybils
	cfg.Hours = *hours

	fmt.Printf("simulating: %d normals, %d sybils, %d h window, seed %d\n",
		cfg.Normals, cfg.Sybils, cfg.Hours, cfg.Seed)
	c := sybilwild.RunCampaign(cfg)
	fmt.Println(c.Pop.Stats())

	meta := sybilwild.DatasetMeta{Seed: *seed, Description: "sybilgen campaign", DurationH: *hours}
	if err := c.Save(*out, meta); err != nil {
		log.Fatal(err)
	}
	net := c.Network()
	fmt.Printf("wrote %s (%d accounts, %d events, %d edges)\n",
		*out, net.NumAccounts(), len(net.Events()), net.Graph().NumEdges())
}
