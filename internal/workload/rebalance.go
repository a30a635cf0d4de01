package workload

import (
	"bytes"
	_ "embed"

	"github.com/elisa-go/elisa/internal/simtime"
)

// The committed rebalance scenario: four equal-rate Poisson tenants,
// each with one exclusive object, and the trace they render to under
// RebalanceSeed and RebalanceHorizon. ext_rebalance pins every object on
// shard 0 of a 4-shard cluster — balanced demand over maximally skewed
// placement — and replays this trace with and without the
// auto-rebalancer armed; the cluster rebalancer tests replay it at 1, 4,
// and 16 shards. Embedded like the regression scenario so every consumer
// replays the same bytes.
var (
	//go:embed testdata/rebalance_spec.conf
	rebalanceSpecConf []byte
	//go:embed testdata/rebalance_trace.csv
	rebalanceTraceCSV []byte
)

// RebalanceSeed and RebalanceHorizon are the Generate inputs that render
// the committed rebalance spec into the committed trace.
const (
	RebalanceSeed    int64 = 7
	RebalanceHorizon       = 400 * simtime.Microsecond
)

// RebalanceFn is the manager function every committed rebalance-trace op
// calls (the same fn ID as the regression trace).
const RebalanceFn uint64 = 0xF1EE0010

// RebalanceSpecs parses the committed rebalance tenant specs.
func RebalanceSpecs() ([]Spec, error) {
	return ParseSpecs(bytes.NewReader(rebalanceSpecConf))
}

// RebalanceTrace parses the committed rebalance trace.
func RebalanceTrace() (*Trace, error) {
	return ParseTrace(bytes.NewReader(rebalanceTraceCSV))
}
