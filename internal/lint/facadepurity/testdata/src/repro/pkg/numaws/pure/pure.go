// Package pure is a stdlib-only schema package under the facade: silent.
package pure

import "fmt"

// Row is one measurement.
type Row struct{ Bench string }

// String renders the row.
func (r Row) String() string { return fmt.Sprint(r.Bench) }
