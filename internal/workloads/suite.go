package workloads

// The paper's nine benchmark configurations, registered at init. This file
// is the former body of harness.Specs: the dims, seed, placement choices
// and Input strings are unchanged (the paper-4x8 small-scale golden output
// pins them byte for byte); only the packaging moved from a closed
// nine-entry function to per-benchmark registry entries.

import "fmt"

// paperSeed drives input generation for the paper suite (IISWC 2018
// vintage).
const paperSeed = 20180707

// paperDims is one scale's input configuration for the paper's nine.
type paperDims struct {
	sortN, sortBase             int
	heatN, heatSteps, heatBands int
	cgN, cgNZ, cgIters, cgBands int
	hull1N, hull2N, hullGrain   int
	hullBands                   int
	mmN, mmBase                 int
	stN, stBase                 int
}

func dimsOf(s Scale) paperDims {
	if s == ScaleSmall {
		return paperDims{
			sortN: 1 << 15, sortBase: 1024,
			heatN: 128, heatSteps: 8, heatBands: 16,
			cgN: 1024, cgNZ: 16, cgIters: 6, cgBands: 16,
			hull1N: 20_000, hull2N: 6_000, hullGrain: 512, hullBands: 16,
			mmN: 128, mmBase: 32,
			stN: 128, stBase: 32,
		}
	}
	return paperDims{
		sortN: 1 << 20, sortBase: 4096,
		heatN: 768, heatSteps: 20, heatBands: 128,
		cgN: 16384, cgNZ: 32, cgIters: 8, cgBands: 128,
		hull1N: 200_000, hull2N: 50_000, hullGrain: 2048, hullBands: 64,
		mmN: 512, mmBase: 32,
		stN: 256, stBase: 16,
	}
}

// paperCfg is the per-run workload configuration: the baseline placement
// is first-touch after serial initialization, so every page lands on
// socket 0 — the configuration a vanilla Cilk Plus program gets by
// default, and the one whose serial elision matches TS.
func paperCfg(aware bool) Config {
	return Config{Aware: aware, Seed: paperSeed}
}

func init() {
	Register("cg", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "cg", Input: fmt.Sprintf("%dx%d/n=%d", d.cgN, d.cgNZ, d.cgBands),
			Make: func(aware bool) Workload {
				return NewCG(d.cgN, d.cgNZ, d.cgIters, d.cgBands, paperCfg(aware))
			},
			InFig3: true, Fig9Name: "cg",
		}
	})
	Register("cilksort", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "cilksort", Input: fmt.Sprintf("%d/%d", d.sortN, d.sortBase),
			Make: func(aware bool) Workload {
				return NewCilksort(d.sortN, d.sortBase, paperCfg(aware))
			},
			InFig3: true, Fig9Name: "cilksort",
		}
	})
	Register("heat", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "heat", Input: fmt.Sprintf("%dx%dx%d/%d rows", d.heatN, d.heatN, d.heatSteps, d.heatN/d.heatBands),
			Make: func(aware bool) Workload {
				return NewHeat(d.heatN, d.heatN, d.heatSteps, d.heatBands, paperCfg(aware))
			},
			InFig3: true, Fig9Name: "heat",
		}
	})
	Register("hull1", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "hull1", Input: fmt.Sprintf("%d/%d", d.hull1N, d.hullGrain),
			Make: func(aware bool) Workload {
				return NewHull(d.hull1N, d.hullGrain, d.hullBands, InDisk, paperCfg(aware))
			},
			InFig3: true, Fig9Name: "hull1",
		}
	})
	Register("hull2", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "hull2", Input: fmt.Sprintf("%d/%d", d.hull2N, d.hullGrain),
			Make: func(aware bool) Workload {
				return NewHull(d.hull2N, d.hullGrain, d.hullBands, OnCircle, paperCfg(aware))
			},
			InFig3: true, Fig9Name: "hull2",
		}
	})
	Register("matmul", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "matmul", Input: fmt.Sprintf("%dx%d/%dx%d", d.mmN, d.mmN, d.mmBase, d.mmBase),
			// Per the paper, matmul uses no locality hints on either
			// platform; the aware flag is dropped.
			Make: func(bool) Workload {
				return NewMatmul(d.mmN, d.mmBase, false, paperCfg(false))
			},
			InFig3: true,
		}
	})
	Register("matmul-z", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "matmul-z", Input: fmt.Sprintf("%dx%d/%dx%d", d.mmN, d.mmN, d.mmBase, d.mmBase),
			Make: func(bool) Workload {
				return NewMatmul(d.mmN, d.mmBase, true, paperCfg(false))
			},
			Fig9Name: "matmul-z",
		}
	})
	Register("strassen", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "strassen", Input: fmt.Sprintf("%dx%d/%dx%d", d.stN, d.stN, d.stBase, d.stBase),
			Make: func(bool) Workload {
				return NewStrassen(d.stN, d.stBase, false, paperCfg(false))
			},
			InFig3: true,
		}
	})
	Register("strassen-z", func(s Scale) Spec {
		d := dimsOf(s)
		return Spec{
			Name: "strassen-z", Input: fmt.Sprintf("%dx%d/%dx%d", d.stN, d.stN, d.stBase, d.stBase),
			Make: func(bool) Workload {
				return NewStrassen(d.stN, d.stBase, true, paperCfg(false))
			},
			Fig9Name: "strassen-z",
		}
	})
}
