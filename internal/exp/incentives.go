package exp

import (
	"fmt"

	"pretium/internal/traffic"
)

// IncentivesResult summarizes the §5 deviation experiment: what fraction
// of sampled admitted requests could increase their utility by
// misreporting, and by how much.
type IncentivesResult struct {
	Sampled          int
	CanBenefit       int
	MeanGainIfAny    float64 // mean relative utility gain among beneficiaries
	MaxGain          float64
	TighterEverHelps bool // sanity: reporting a tighter deadline should never help
}

// Rows renders the result.
func (r IncentivesResult) Rows() []Row {
	frac := 0.0
	if r.Sampled > 0 {
		frac = float64(r.CanBenefit) / float64(r.Sampled)
	}
	return []Row{
		{Label: "deviations", Columns: []Col{
			{Name: "sampled", Value: float64(r.Sampled)},
			{Name: "frac_can_benefit", Value: frac},
			{Name: "mean_gain_if_any", Value: r.MeanGainIfAny},
			{Name: "max_gain", Value: r.MaxGain},
			{Name: "tighter_deadline_helps", Value: boolTo01(r.TighterEverHelps)},
		}},
	}
}

// Incentives replays the full Pretium simulation with single-request
// deadline misreports and measures the deviator's utility change. The
// paper's empirical claim (§5): under 26% of admitted requests can gain
// at all, and the mean gain conditional on gaining is under 6%.
//
// Utility is v_i times the bytes delivered by the *true* deadline minus
// the payment; a deviator who reports a later deadline risks late
// delivery and pays for every byte either way.
func Incentives(sc Scale, sampleEvery int, seed int64) (IncentivesResult, error) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	s := NewSetup(sc, WithLoad(2), WithSeed(seed))
	truthful, err := s.RunPretium(nil)
	if err != nil {
		return IncentivesResult{}, err
	}
	utility := func(res SchemeResult, i int, trueEnd int, v float64) float64 {
		useful := res.Outcome.DeliveredBy(i, trueEnd)
		return v*useful - res.Outcome.Payments[i]
	}

	var out IncentivesResult
	var gains []float64
	horizon := sc.Steps
	for i := 0; i < len(s.Requests); i += sampleEvery {
		if !truthful.Controller.Admitted[i] {
			continue
		}
		req := s.Requests[i]
		base := utility(truthful, i, req.End, req.Value)
		out.Sampled++
		bestGain := 0.0
		for _, dEnd := range []int{+2, +4, -1} {
			newEnd := req.End + dEnd
			if newEnd < req.Start || newEnd >= horizon || newEnd == req.End {
				continue
			}
			devReqs := cloneRequests(s.Requests)
			devReqs[i].End = newEnd
			devSetup := *s
			devSetup.Requests = devReqs
			devRun, err := devSetup.RunPretium(nil)
			if err != nil {
				return IncentivesResult{}, err
			}
			// Utility still measured against the TRUE deadline.
			u := utility(devRun, i, req.End, req.Value)
			gain := u - base
			if gain > bestGain {
				bestGain = gain
			}
			if dEnd < 0 && gain > 1e-6 {
				out.TighterEverHelps = true
			}
		}
		// Splitting deviation (Theorem 5.1 also covers breaking one
		// request into several): halve the request and append its twin
		// to the stream, so it is admitted after every other request of
		// its arrival step; the deviator's utility sums over both halves.
		if req.Demand > 1 {
			devReqs := cloneRequests(s.Requests)
			devReqs[i].Demand = req.Demand / 2
			half := *devReqs[i]
			half.ID = len(devReqs)
			devReqs = append(devReqs, &half)
			devSetup := *s
			devSetup.Requests = devReqs
			devRun, err := devSetup.RunPretium(nil)
			if err != nil {
				return IncentivesResult{}, err
			}
			u := utility(devRun, i, req.End, req.Value) +
				utility(devRun, half.ID, req.End, req.Value)
			if gain := u - base; gain > bestGain {
				bestGain = gain
			}
		}
		if bestGain > 1e-6 {
			out.CanBenefit++
			// Normalize by the gross trade value v_i*d_i rather than by
			// the truthful consumer surplus: competitive prices drive
			// surplus toward zero, which would make relative gains
			// explode even when the absolute gain is pennies.
			gross := req.Value * req.Demand
			rel := bestGain
			if gross > 1e-9 {
				rel = bestGain / gross
			}
			gains = append(gains, rel)
			if rel > out.MaxGain {
				out.MaxGain = rel
			}
		}
	}
	if len(gains) > 0 {
		sum := 0.0
		for _, g := range gains {
			sum += g
		}
		out.MeanGainIfAny = sum / float64(len(gains))
	}
	return out, nil
}

func cloneRequests(reqs []*traffic.Request) []*traffic.Request {
	out := make([]*traffic.Request, len(reqs))
	for i, r := range reqs {
		cp := *r
		out[i] = &cp
	}
	return out
}

// String renders a one-line summary.
func (r IncentivesResult) String() string {
	frac := 0.0
	if r.Sampled > 0 {
		frac = float64(r.CanBenefit) / float64(r.Sampled)
	}
	return fmt.Sprintf("sampled=%d can_benefit=%.0f%% mean_gain=%.1f%% max_gain=%.1f%%",
		r.Sampled, frac*100, r.MeanGainIfAny*100, r.MaxGain*100)
}
