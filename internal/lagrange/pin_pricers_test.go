package lagrange

import "repro/internal/tila"

// pinTILAPricers names each TILA pricer and the options that select it.
var pinTILAPricers = []struct {
	name string
	opt  tila.Options
}{
	{"linear", tila.Options{}},
	{"exactdp", tila.Options{Pricing: tila.ExactDP}},
}
