// Package leaf impersonates a schema package under the facade, which the
// facade re-exports as aliases: it may import no internal package, not
// even behind unexported identifiers, and its surface is checked like
// the facade's.
package leaf

import (
	"repro/internal/engine" // want `repro/pkg/numaws/leaf imports repro/internal/engine: packages under pkg/numaws import no internal package`
)

// Row is clean by itself; the import above is still a violation.
type Row struct {
	Bench string
	raw   *engine.Report
}

func Raw() *engine.Report { return engine.Run() } // want `func Raw leaks internal type engine\.Report`
