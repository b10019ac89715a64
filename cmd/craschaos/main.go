// Command craschaos runs the deterministic fault-injection campaign: seeded
// fault scenarios crossed with stream counts, each asserting the recovery
// engine's invariants (no expired chunk delivered, the scheduler never
// wedges, healthy streams lose nothing to a faulty peer). Every failure
// prints the scenario name and seed needed to replay it bit-for-bit.
//
// Usage:
//
//	craschaos                     # full campaign (46 scenarios)
//	craschaos -quick              # CI subset (one stream count per kind)
//	craschaos -seed 7             # re-derive the campaign from another seed
//	craschaos -only stall         # scenarios whose name contains "stall"
//	craschaos -list               # print scenario names and exit
//	craschaos -v                  # per-scenario stats even on success
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "campaign base seed; scenario seeds derive from it")
		quick   = flag.Bool("quick", false, "run the CI subset")
		only    = flag.String("only", "", "run only scenarios whose name contains this substring")
		list    = flag.Bool("list", false, "list scenario names and exit")
		verbose = flag.Bool("v", false, "print per-scenario stats")
	)
	flag.Parse()

	scenarios := chaos.Campaign(*seed)
	if *quick {
		scenarios = chaos.Quick(*seed)
	}
	if *only != "" {
		var kept []chaos.Scenario
		for _, sc := range scenarios {
			if strings.Contains(sc.Name, *only) {
				kept = append(kept, sc)
			}
		}
		scenarios = kept
	}
	if *list {
		for _, sc := range scenarios {
			fmt.Printf("%-28s seed=%d streams=%d\n", sc.Name, sc.Seed, sc.Streams)
		}
		return
	}
	if len(scenarios) == 0 {
		fmt.Fprintln(os.Stderr, "craschaos: no scenarios match")
		os.Exit(2)
	}

	failed := 0
	for _, sc := range scenarios {
		res := chaos.Run(sc)
		if res.Failed() {
			failed++
			fmt.Printf("FAIL %-28s seed=%d streams=%d\n", sc.Name, sc.Seed, sc.Streams)
			for _, v := range res.Violations {
				fmt.Printf("     %s\n", v)
			}
			fmt.Printf("     faults=%+v retries=%d denied=%d cancels=%d ladder=%d %s\n",
				res.Faults, res.Server.ReadRetries, res.Server.RetriesDenied,
				res.Server.WatchdogCancels, len(res.Ladder), playerSummary(res))
			fmt.Printf("     replay: go run ./cmd/craschaos -seed %d -only '%s'\n", *seed, sc.Name)
			continue
		}
		if *verbose {
			fmt.Printf("ok   %-28s seed=%d faults=%d retries=%d denied=%d cancels=%d ladder=%d %s\n",
				sc.Name, sc.Seed, res.Faults.Total(), res.Server.ReadRetries,
				res.Server.RetriesDenied, res.Server.WatchdogCancels, len(res.Ladder),
				playerSummary(res))
		} else {
			fmt.Printf("ok   %-28s seed=%d\n", sc.Name, sc.Seed)
		}
	}
	fmt.Printf("\n%d scenarios, %d failed\n", len(scenarios), failed)
	if failed > 0 {
		os.Exit(1)
	}
}

func playerSummary(res *chaos.Result) string {
	var b strings.Builder
	for i, p := range res.Players {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d/%d(%s)", p.Path, p.Obtained, p.Frames, p.Health)
	}
	return b.String()
}
