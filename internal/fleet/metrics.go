package fleet

import "pythia/internal/obs"

// Fleet metrics. Counters are process-wide and cumulative; the gauges
// that track a live Coordinator are func-backed and registered per
// instance (replace-on-reregister, like serve's).
var (
	mColdStarts = obs.GetCounter("pythia_fleet_cold_starts_total",
		"Worker processes spawned (scale-up and crash respawn).", nil)
	mColdStartSeconds = obs.GetGauge("pythia_fleet_cold_start_seconds",
		"Most recent worker spawn-to-first-heartbeat latency.", nil)
)

// mScaleDecisions counts non-hold autoscaler decisions by direction.
func mScaleDecisions(direction string) *obs.Counter {
	return obs.GetCounter("pythia_fleet_scale_decisions_total",
		"Autoscaler decisions that changed the fleet size, by direction.",
		obs.L("direction", direction))
}

// registerMetrics wires this coordinator's live state into the default
// registry.
func (c *Coordinator) registerMetrics() {
	obs.RegisterGaugeFunc("pythia_fleet_workers_desired",
		"Worker count the autoscaler currently wants.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.desired)
		})
	obs.RegisterGaugeFunc("pythia_fleet_workers",
		"Live workers by state.", obs.L("state", "ready"),
		func() float64 { r, _ := c.sup.counts(); return float64(r) })
	obs.RegisterGaugeFunc("pythia_fleet_workers",
		"Live workers by state.", obs.L("state", "starting"),
		func() float64 { _, st := c.sup.counts(); return float64(st) })
	obs.RegisterCounterFunc("pythia_fleet_requeues_total",
		"Jobs requeued by the frontend reaping a dead worker's expired claim.", nil,
		c.requeues)
	obs.RegisterGaugeFunc("pythia_fleet_queue_depth",
		"Claimable (unclaimed, non-terminal) journal records.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.queued)
		})
	obs.RegisterGaugeFunc("pythia_fleet_inflight",
		"Claimed, unfinished jobs across the fleet.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.inflight)
		})
}
