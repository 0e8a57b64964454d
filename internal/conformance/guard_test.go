package conformance

import (
	"strings"
	"testing"
)

// recordedText renders recorded violations one per line, as pinned.
func recordedText(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMutationSmokeRecordedPinned pins every violation the mutation
// smoke's three drills record at E18's seed: cycle, check and detail,
// in order. How the checker builds its expectation and compares it may
// change; what it reports may not.
func TestMutationSmokeRecordedPinned(t *testing.T) {
	res, err := MutationSmoke(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordedText(res.Recorded); got != mutationSmokeRecorded {
		t.Errorf("MutationSmoke(3) recorded:\n%s\npinned:\n%s", got, mutationSmokeRecorded)
	}
}

const mutationSmokeRecorded = `@352 table: router R00 out 1 slot 1: input -1, model 0
@384 table: router R00 out 1 slot 1: input -1, model 0
@416 table: router R00 out 1 slot 1: input -1, model 0
@448 table: router R00 out 1 slot 1: input -1, model 0
@480 table: router R00 out 1 slot 1: input -1, model 0
@512 table: router R00 out 1 slot 1: input -1, model 0
@544 table: router R00 out 1 slot 1: input -1, model 0
@576 table: router R00 out 1 slot 1: input -1, model 0
@384 credit: conn 0: source credit 62 exceeds queue capacity 16
@416 credit: conn 0: source credit 62 exceeds queue capacity 16
@448 credit: conn 0: source credit 62 exceeds queue capacity 16
@480 credit: conn 0: source credit 62 exceeds queue capacity 16
@512 credit: conn 0: source credit 62 exceeds queue capacity 16
@544 credit: conn 0: source credit 62 exceeds queue capacity 16
@576 credit: conn 0: source credit 62 exceeds queue capacity 16
@608 credit: conn 0: source credit 62 exceeds queue capacity 16
@338 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 0)
@352 table: router R00 out 0 slot 1: input 0, model -1
@354 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 2)
@355 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 3)
@370 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 6)
@371 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 7)
@384 table: router R00 out 0 slot 1: input 0, model -1
@386 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 10)
@387 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 11)
@402 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 14)
@403 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 15)
@416 table: router R00 out 0 slot 1: input 0, model -1
@418 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 18)
@419 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 19)
@434 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 22)
@435 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 23)
@448 table: router R00 out 0 slot 1: input 0, model -1
@450 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 26)
@451 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 27)
@466 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 30)
@467 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 31)
@480 table: router R00 out 0 slot 1: input 0, model -1
@482 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 34)
@483 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 35)
@498 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 38)
@499 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 39)
@512 table: router R00 out 0 slot 1: input 0, model -1
@514 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 42)
@515 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 43)
@530 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 46)
@531 contention: payload on R00->NI00 in unreserved slot 1 (from NI00 ch 0 seq 47)
@544 table: router R00 out 0 slot 1: input 0, model -1
`

// flightRecorderRecorded is what the checker records on the flight
// recorder test's planted flip.
const flightRecorderRecorded = `@352 table: router R00 out 1 slot 1: input -1, model 0
@384 table: router R00 out 1 slot 1: input -1, model 0
@416 table: router R00 out 1 slot 1: input -1, model 0
@448 table: router R00 out 1 slot 1: input -1, model 0
@480 table: router R00 out 1 slot 1: input -1, model 0
@512 table: router R00 out 1 slot 1: input -1, model 0
@544 table: router R00 out 1 slot 1: input -1, model 0
@576 table: router R00 out 1 slot 1: input -1, model 0
`
