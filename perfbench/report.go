package main

import (
	"fmt"
	"io"
)

// budget is one layer-budget table: the self times of the layers on a
// request's blocking path plus the unattributed remainder add up to the
// untraced end-to-end mean.
type budget struct {
	title  string
	unit   string
	e2e    float64 // untraced end-to-end mean
	traced float64 // traced end-to-end mean
	rows   []budgetRow
}

type budgetRow struct {
	name, source string
	v            float64
}

func (b *budget) add(name string, v float64, source string) {
	b.rows = append(b.rows, budgetRow{name: name, v: v, source: source})
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "layer budget: %s, %s\n", b.title, b.unit)
	var sum float64
	for _, r := range b.rows {
		sum += r.v
		fmt.Fprintf(w, "  %-26s %12.1f %6.1f%%  %s\n", r.name, r.v, 100*ratio(r.v, b.e2e), r.source)
	}
	rem := b.e2e - sum
	fmt.Fprintf(w, "  %-26s %12.1f %6.1f%%  untraced end-to-end minus the layers above\n", "remainder", rem, 100*ratio(rem, b.e2e))
	fmt.Fprintf(w, "  %-26s %12.1f\n", "= untraced end-to-end", b.e2e)
	fmt.Fprintf(w, "  %-26s %12.1f  tracing overhead %.1f (%.1f%%)\n", "traced end-to-end", b.traced,
		b.traced-b.e2e, 100*ratio(b.traced-b.e2e, b.e2e))
}
