package load

import (
	"fmt"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/serve"
)

// ReqKind classifies one generated request.
type ReqKind int

const (
	// KindRun is a normal request expected to succeed (or shed under
	// saturation).
	KindRun ReqKind = iota
	// KindFault is a request with a planted divide-by-zero; the
	// expected outcome is a typed FaultError, not success.
	KindFault
	// KindDisconnect is a rude client: it opens a request promising
	// streams it never sends and slams the connection, exercising the
	// server's cleanup path mid-load.
	KindDisconnect
)

// Request is one drawn arrival: which kernel, which input template, and
// whether the outcome should be a success, a planted fault, or no
// response at all (rude disconnect).
type Request struct {
	Kind   ReqKind
	Kernel string
	Inputs map[string][]int64
}

// Mix is one kernel's entry in the request mix. Input templates are
// generated once at scenario build (deterministic) and shared by every
// worker — the wire encoder only reads them.
type Mix struct {
	Kernel string `json:"kernel"`

	inputs      map[string][]int64
	faultInputs map[string][]int64 // non-nil only for fault-capable kernels
}

// Scenario is a mixed request profile: a kernel mix drawn uniformly
// plus the fraction of arrivals that are planted faults or rude
// disconnects.
type Scenario struct {
	// Mix is the request mix over streaming kernels.
	Mix []Mix `json:"mix"`
	// FaultFraction of arrivals run the fault-capable kernel with a
	// planted zero divisor (expected outcome: typed fault).
	FaultFraction float64 `json:"fault_fraction"`
	// DisconnectFraction of arrivals are rude disconnects.
	DisconnectFraction float64 `json:"disconnect_fraction"`
	// StreamsPerRequest is the batch width of every request.
	StreamsPerRequest int `json:"streams_per_request"`

	// Specs is everything the serving side must register (includes
	// kernels the mix skips as non-streaming).
	Specs []serve.KernelSpec `json:"-"`

	faultMix []int // indexes into Mix with a fault template
}

// BuildScenario compiles the Table 1 kernels, the fault divider
// (bench.Divider) and the ci/corpus kernels (corpusDir may be empty or
// missing) into a request mix: every streaming kernel enters the mix
// with an equal share, input templates are generated deterministically,
// and the divider also gets a planted-fault template. Combinational
// kernels stay in Specs (the fleet registers them) but draw no load.
func BuildScenario(corpusDir string, faultFrac, discFrac float64, streams int) (*Scenario, error) {
	if faultFrac < 0 || discFrac < 0 || faultFrac+discFrac > 1 {
		return nil, fmt.Errorf("load: fault (%g) and disconnect (%g) fractions must be >= 0 and sum to <= 1", faultFrac, discFrac)
	}
	if streams <= 0 {
		return nil, fmt.Errorf("load: streams per request must be positive (got %d)", streams)
	}
	divider := bench.Divider()
	specs := serve.Specs(append(bench.All(), divider))
	corpus, err := bench.Corpus(corpusDir)
	if err != nil {
		return nil, err
	}
	specs = append(specs, serve.Specs(corpus)...)

	sc := &Scenario{
		FaultFraction:      faultFrac,
		DisconnectFraction: discFrac,
		StreamsPerRequest:  streams,
		Specs:              specs,
	}
	rng := uint64(0x9044) // fixed: templates are part of the scenario's identity
	for _, spec := range specs {
		res, err := core.CompileSource(spec.Source, spec.Func, spec.Options)
		if err != nil {
			return nil, fmt.Errorf("load: compiling %s: %w", spec.Name, err)
		}
		if !res.Kernel.Streams() {
			continue // combinational: cannot stream, draws no load
		}
		m := Mix{Kernel: spec.Name, inputs: map[string][]int64{}}
		for _, w := range res.Kernel.Reads {
			vals := make([]int64, w.Arr.Len())
			for j := range vals {
				vals[j] = int64(splitmix64(&rng)%255) - 128
			}
			if spec.Name == divider.Name && w.Arr.Name == "B" {
				for j := range vals {
					vals[j] = int64(splitmix64(&rng)%97) + 1
				}
			}
			m.inputs[w.Arr.Name] = vals
		}
		if spec.Name == divider.Name {
			m.faultInputs = map[string][]int64{}
			for name, vals := range m.inputs {
				fv := make([]int64, len(vals))
				copy(fv, vals)
				m.faultInputs[name] = fv
			}
			b := m.faultInputs["B"]
			b[int(splitmix64(&rng)%uint64(len(b)))] = 0
			sc.faultMix = append(sc.faultMix, len(sc.Mix))
		}
		sc.Mix = append(sc.Mix, m)
	}
	if len(sc.Mix) == 0 {
		return nil, fmt.Errorf("load: no streaming kernels in the scenario")
	}
	return sc, nil
}

// Draw generates one arrival from the profile, advancing the caller's
// deterministic rng state.
func (s *Scenario) Draw(rng *uint64) Request {
	u := float64(splitmix64(rng)>>11) / (1 << 53)
	if u < s.DisconnectFraction {
		// Rude disconnects open a real kernel so the server's request
		// state engages before the slam.
		return Request{Kind: KindDisconnect, Kernel: s.Mix[0].Kernel}
	}
	u -= s.DisconnectFraction
	if u < s.FaultFraction && len(s.faultMix) > 0 {
		m := &s.Mix[s.faultMix[int(splitmix64(rng)%uint64(len(s.faultMix)))]]
		return Request{Kind: KindFault, Kernel: m.Kernel, Inputs: m.faultInputs}
	}
	// Uniform kernel pick: w·len(Mix) < len(Mix), since w < 1 and the
	// product rounds to nearest.
	w := float64(splitmix64(rng)>>11) / (1 << 53)
	m := &s.Mix[int(w*float64(len(s.Mix)))]
	return Request{Kind: KindRun, Kernel: m.Kernel, Inputs: m.inputs}
}
