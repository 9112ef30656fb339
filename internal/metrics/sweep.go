package metrics

// The topology-sweep surface: speedup-vs-worker-count curves measured on a
// grid of machine shapes — Fig. 9's experiment opened along a new axis.

import (
	"fmt"
	"strings"

	"repro/pkg/numaws/results"
)

// SweepTable renders the per-topology speedup tables: one Fig. 9-style block
// per topology, in first-appearance order, so curves measured on the same
// machine shape line up under one point axis.
func SweepTable(sweeps []results.SweepCurve) string {
	var b strings.Builder
	b.WriteString("Sweep: NUMA-WS speedup (T1/TP) by machine topology; workers packed onto the fewest sockets\n")
	var order []string
	byTopo := map[string][]results.SweepCurve{}
	for _, s := range sweeps {
		if _, ok := byTopo[s.Topology]; !ok {
			order = append(order, s.Topology)
		}
		byTopo[s.Topology] = append(byTopo[s.Topology], s)
	}
	for _, topo := range order {
		group := byTopo[topo]
		fmt.Fprintf(&b, "\n-- %s (%d sockets x %d cores) --\n",
			topo, group[0].Sockets, group[0].Cores/max(group[0].Sockets, 1))
		fmt.Fprintf(&b, "%-12s", "benchmark")
		for _, p := range group[0].P {
			fmt.Fprintf(&b, " %8s", fmt.Sprintf("P=%d", p))
		}
		b.WriteByte('\n')
		for _, s := range group {
			fmt.Fprintf(&b, "%-12s", s.Bench)
			for _, sp := range s.Speedup() {
				fmt.Fprintf(&b, " %8.2f", sp)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
