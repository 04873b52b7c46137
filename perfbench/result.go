package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/channel"
	"repro/internal/sim"
)

// resultJSON serializes every observable field of a sim.Result,
// including the backlog series and the raw latency-reservoir contents in
// order, so two runs agree iff their dumps are byte-identical.
func resultJSON(r *sim.Result) ([]byte, error) {
	var lat []float64
	if r.LatencySample != nil {
		lat = r.LatencySample.Values()
	}
	var backlogT []int64
	var backlogV []float64
	if r.BacklogSeries != nil {
		backlogT, backlogV = r.BacklogSeries.T, r.BacklogSeries.V
	}
	b, err := json.Marshal(struct {
		Protocol, Arrival, Medium           string
		Kappa                               int
		Horizon, Arrivals, Delivered        int64
		Pending                             int
		FirstArrival, LastDelivery, Elapsed int64
		MaxBacklog, PeakInFlight            int
		Channel                             channel.Stats
		LatencyN                            int64
		LatencyMean, LatencyMin, LatencyMax float64
		LatencyStddev                       float64
		BacklogT                            []int64
		BacklogV                            []float64
		LatencyValues                       []float64
	}{
		r.Protocol, r.Arrival, r.Medium,
		r.Kappa,
		r.Horizon, r.Arrivals, r.Delivered,
		r.Pending,
		r.FirstArrival, r.LastDelivery, r.Elapsed,
		r.MaxBacklog, r.PeakInFlight,
		r.Channel,
		r.Latency.N(),
		r.Latency.Mean(), r.Latency.Min(), r.Latency.Max(),
		r.Latency.Stddev(),
		backlogT,
		backlogV,
		lat,
	})
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	return b, nil
}
