package main

import (
	"raidrel/internal/rng"
	"raidrel/internal/service"
)

// The daemon-mix job sequence. Most jobs are cold plain fixed-size
// campaigns of the base case with distinct seeds; a share carries the
// coupled enclosure topology (event engine only); a share exactly repeats
// an earlier cold job's spec, which the daemon should serve from its
// result cache. Kinds are dealt from a shuffled deck of mixDeck cards, so
// every run has the same shares and the seed decides the order, the job
// seeds and which specs repeat.
const (
	mixPlainIters = 4000
	mixTopoIters  = 2000
	// A deck of 20 holds 14 plain, 3 topology and 3 repeat cards.
	mixDeck       = 20
	mixTopoCards  = 3
	mixRepeatCard = 3
	// mixRepeatLag keeps the most recent cold jobs out of a repeat's reach:
	// with two clients the newest ones may still be running, which would
	// coalesce the repeat instead of hitting the cache.
	mixRepeatLag = 2
	// mixSalt separates the job-mix stream from the other seed-derived
	// streams of a run.
	mixSalt = 0x6d69782d6a6f6273
)

type jobKind int

const (
	kindPlain jobKind = iota
	kindTopology
	kindRepeat
)

func (k jobKind) String() string {
	return [...]string{"plain", "topology", "repeat"}[k]
}

// mixJob is one generated request. Orig is the index of the job a repeat
// copies, and -1 for cold jobs.
type mixJob struct {
	Kind jobKind
	Orig int
	Spec service.JobSpec
}

// genMix generates n jobs from seed. The same seed always gives the same
// sequence; cold jobs never share a seed, so only repeats share specs. A
// repeat card drawn before any cold job is out of the lag's reach becomes
// a plain job.
func genMix(seed uint64, n int) []mixJob {
	r := rng.New(seed ^ mixSalt)
	jobs := make([]mixJob, 0, n)
	var cold []int
	used := map[uint64]bool{}
	deck := make([]jobKind, mixDeck)
	for i := 0; i < n; i++ {
		if i%mixDeck == 0 {
			for c := range deck {
				switch {
				case c < mixTopoCards:
					deck[c] = kindTopology
				case c < mixTopoCards+mixRepeatCard:
					deck[c] = kindRepeat
				default:
					deck[c] = kindPlain
				}
			}
			for c := len(deck) - 1; c > 0; c-- {
				j := r.Intn(c + 1)
				deck[c], deck[j] = deck[j], deck[c]
			}
		}
		kind := deck[i%mixDeck]
		if kind == kindRepeat && len(cold) > mixRepeatLag {
			o := cold[r.Intn(len(cold)-mixRepeatLag)]
			jobs = append(jobs, mixJob{Kind: kindRepeat, Orig: o, Spec: jobs[o].Spec})
			continue
		}
		s := r.Uint64()
		for used[s] {
			s = r.Uint64()
		}
		used[s] = true
		j := mixJob{Kind: kindPlain, Orig: -1, Spec: service.JobSpec{Params: baseParams(), Seed: s, Iterations: mixPlainIters}}
		if kind == kindTopology {
			j.Kind = kindTopology
			j.Spec = service.JobSpec{Params: topologyParams(), Seed: s, Iterations: mixTopoIters}
		}
		cold = append(cold, i)
		jobs = append(jobs, j)
	}
	return jobs
}
