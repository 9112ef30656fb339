package facadepurity_test

import (
	"testing"

	"repro/internal/lint/facadepurity"
	"repro/internal/lint/lintest"
)

func TestFacadePurity(t *testing.T) {
	lintest.Run(t, "testdata", facadepurity.Analyzer,
		"repro/pkg/numaws",      // exported-surface leaks
		"repro/pkg/numaws/leaf", // subpackage: surface leak and internal import
		"repro/pkg/numaws/pure", // stdlib-only subpackage: silent
		"repro/cmd/badtool",     // internal import from a binary
		"repro/examples/clean",  // facade-only example: silent
		"repro/cmd/lintwiring",  // lint infrastructure import: exempt
		"repro/internal/engine", // internal package itself: out of scope
	)
}
