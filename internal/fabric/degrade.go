package fabric

import "fmt"

// Degraded wraps a Topology with per-link bandwidth derating — the
// failure-injection hook: a flapping link, a misseated cable, or a switch
// port stuck at a lower rate. Routes are unchanged (the fabric does not
// reroute), so degraded links become bottlenecks exactly as they do on a
// real cluster where a single slow link drags every collective that
// crosses it.
type Degraded struct {
	Topology
	// Factors maps link id → bandwidth multiplier in (0, 1].
	Factors map[int]float64
}

// NewDegraded wraps topo, derating the given links. Factors must lie in
// (0, 1]: a non-positive factor would silently disable the derating and a
// factor above 1 would speed the link up — both almost certainly a typo in
// a failure scenario, so both panic.
func NewDegraded(topo Topology, factors map[int]float64) *Degraded {
	for id, f := range factors {
		if f <= 0 || f > 1 {
			panic(fmt.Sprintf("fabric: NewDegraded factor %g for link %d outside (0, 1]", f, id))
		}
	}
	return &Degraded{Topology: topo, Factors: factors}
}

// LinkBandwidth implements Topology.
func (d *Degraded) LinkBandwidth(id int) float64 {
	bw := d.Topology.LinkBandwidth(id)
	if f, ok := d.Factors[id]; ok {
		return bw * f
	}
	return bw
}

// Name implements Topology.
func (d *Degraded) Name() string { return d.Topology.Name() + " (degraded)" }
