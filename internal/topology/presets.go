package topology

// Parameterized machine shapes and the named preset registry. The paper
// evaluates one fixed machine (4 sockets x 8 cores, XeonE5_4620); everything
// here exists to open that axis: generic constructors for common NUMA shapes
// plus a parser so experiment surfaces (numaws sweep, harness.Machines) can
// name topologies on the command line.

import (
	"fmt"
	"strings"
)

// Ring builds a topology whose sockets are connected in a cycle, with hop
// distance the minimum number of links between two sockets — the shape of
// point-to-point interconnects (QPI/UPI rings) when vendors scale past
// fully-connected socket counts. Ring(2, c) is fully connected; Ring(4, c)
// has the same distance multiset as the paper's machine.
func Ring(sockets, coresPerSocket int) *Topology {
	d := make([][]int, sockets)
	for i := range d {
		d[i] = make([]int, sockets)
		for j := range d[i] {
			hops := i - j
			if hops < 0 {
				hops = -hops
			}
			if around := sockets - hops; around < hops {
				hops = around
			}
			d[i][j] = hops
		}
	}
	return MustNew(sockets, coresPerSocket, d)
}

// Clustered builds a sub-NUMA-clustering topology: packages physical
// packages, each split into clustersPerPackage NUMA nodes of coresPerCluster
// cores. Nodes in the same package are one hop apart (they share an on-die
// mesh); nodes in different packages are two hops apart (a cross-package
// link plus the on-die hop). This is the shape `numactl --hardware` reports
// on an SNC-enabled Xeon.
func Clustered(packages, clustersPerPackage, coresPerCluster int) *Topology {
	if packages <= 0 || clustersPerPackage <= 0 {
		panic(fmt.Sprintf("topology: invalid clustered shape %dx%dx%d",
			packages, clustersPerPackage, coresPerCluster))
	}
	nodes := packages * clustersPerPackage
	d := make([][]int, nodes)
	for i := range d {
		d[i] = make([]int, nodes)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case i/clustersPerPackage == j/clustersPerPackage:
				d[i][j] = 1
			default:
				d[i][j] = 2
			}
		}
	}
	return MustNew(nodes, coresPerCluster, d)
}

// presets is the named topology registry, in display order. Every preset has
// 32 cores so sweeps compare machine shape, not machine size.
var presets = []struct {
	name  string
	about string
	build func() *Topology
}{
	{"paper-4x8", "the paper's 4-socket x 8-core Xeon E5-4620", XeonE5_4620},
	{"2x16", "2 sockets x 16 cores, fully connected", func() *Topology { return Ring(2, 16) }},
	{"8x4", "8 sockets x 4 cores on a ring (max 4 hops)", func() *Topology { return Ring(8, 4) }},
	{"snc-2x2x8", "2 packages x 2 sub-NUMA clusters x 8 cores", func() *Topology { return Clustered(2, 2, 8) }},
	{"uniform", "1 socket x 32 cores (UMA control)", func() *Topology { return SingleSocket(32) }},
}

// Presets returns the registered preset names in display order.
func Presets() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// Preset returns the named preset topology, or false if no such preset
// exists. Each call builds a fresh Topology.
func Preset(name string) (*Topology, bool) {
	for _, p := range presets {
		if p.name == name {
			return p.build(), true
		}
	}
	return nil, false
}

// maxShapeSockets bounds the socket count of a generic shape. A machine's
// distance matrix is quadratic in its sockets, so without a bound a short
// spec string such as "100000x1" (from a flag or a service request) would
// make Parse allocate tens of gigabytes. maxShapeCores bounds the total
// core count the same way: every core can host a simulated worker, so
// "1x100000000" would otherwise ask the engine for 10^8 workers at run
// time.
const (
	maxShapeSockets = 64
	maxShapeCores   = 1024
)

// Parse resolves a topology spec: a preset name (see Presets) or a generic
// "SxC" shape — S sockets of C cores on a ring interconnect, e.g. "2x4" or
// "16x8". Unknown specs return an error naming the accepted forms, so
// callers can surface it as a usage error instead of silently defaulting.
func Parse(spec string) (*Topology, error) {
	if t, ok := Preset(spec); ok {
		return t, nil
	}
	var sockets, cores int
	if n, err := fmt.Sscanf(spec, "%dx%d", &sockets, &cores); n == 2 && err == nil &&
		spec == fmt.Sprintf("%dx%d", sockets, cores) {
		if sockets <= 0 || cores <= 0 {
			return nil, fmt.Errorf("topology: shape %q must have positive sockets and cores", spec)
		}
		if sockets > maxShapeSockets {
			return nil, fmt.Errorf("topology: shape %q has more than %d sockets", spec, maxShapeSockets)
		}
		if cores > maxShapeCores/sockets {
			return nil, fmt.Errorf("topology: shape %q has more than %d cores", spec, maxShapeCores)
		}
		return Ring(sockets, cores), nil
	}
	return nil, fmt.Errorf("topology: unknown topology %q (want a preset — %s — or a SOCKETSxCORES shape like 2x4)",
		spec, strings.Join(Presets(), ", "))
}
