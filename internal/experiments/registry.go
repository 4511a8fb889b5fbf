package experiments

import (
	"fmt"
	"sort"

	"github.com/disagg/smartds/internal/metrics"
)

// Runner regenerates one paper artifact.
type Runner func(Options) []*metrics.Table

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"fig4":   func(o Options) []*metrics.Table { return []*metrics.Table{Fig4(o)} },
	"table1": func(o Options) []*metrics.Table { return []*metrics.Table{Table1(o)} },
	"table3": func(o Options) []*metrics.Table { return []*metrics.Table{Table3(o)} },
	"fig7":   func(o Options) []*metrics.Table { return []*metrics.Table{Fig7(o)} },
	"fig8":   Fig8,
	"fig9":   func(o Options) []*metrics.Table { return []*metrics.Table{Fig9(o)} },
	"fig10":  func(o Options) []*metrics.Table { return []*metrics.Table{Fig10(o)} },
	"sec55":  func(o Options) []*metrics.Table { return []*metrics.Table{Sec55(o)} },
	// Extensions beyond the paper's evaluation.
	"ext-reads":            func(o Options) []*metrics.Table { return []*metrics.Table{ExtReads(o)} },
	"ext-failover":         func(o Options) []*metrics.Table { return []*metrics.Table{ExtFailover(o)} },
	"ext-faults":           ExtFaults,
	"ext-faults-protocols": ExtFaultsProtocols,
}

// Names lists the available experiment ids in stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(name string, opt Options) ([]*metrics.Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	opt.exp = name
	return r(opt), nil
}
