// Package panicfix seeds containment-boundary defects: recovers outside
// the designated boundary, with and without waivers.
package panicfix

// A bare recover outside the boundary swallows the failure the grid
// should have contained.
func swallow(run func()) (ok bool) {
	defer func() {
		if recover() != nil { // want `recover\(\) in swallow`
			ok = false
		}
	}()
	run()
	return true
}

// The teardown-guard form — swallow only its own unwind sentinel and
// re-raise every other panic — is sanctioned with a reasoned waiver.
type unwind struct{}

func guard(run func()) {
	defer func() {
		//numaws:recover-ok teardown guard, not containment: every other panic is re-raised
		if p := recover(); p != nil && p != (unwind{}) {
			panic(p)
		}
	}()
	run()
}

// A reasonless waiver is itself a finding.
func lazyGuard(run func()) {
	defer func() {
		//numaws:recover-ok
		recover() // want `numaws:recover-ok suppression is missing its mandatory reason`
	}()
	run()
}

// A user-defined recover shadows the builtin and is not a containment
// point.
func localRecover() bool { return false }

func notTheBuiltin() {
	if localRecover() {
		return
	}
}
