package conformance

import "testing"

// TestScenarioPins records each of seeds 1–25's fingerprint and delivered
// word count: the values `daelite conform -scenarios 25 -seed 1 -v`
// prints. E18's golden output pins only seeds 1–6; this covers the whole
// CI sweep, including the two faulted seeds (11 and 25), so a change to
// the harness that moves attach order, source seeds or chunk boundaries
// fails here by seed.
func TestScenarioPins(t *testing.T) {
	pins := []struct {
		seed        uint64
		fingerprint uint64
		delivered   uint64
	}{
		{1, 0x2e97d218befab3ca, 207},
		{2, 0x62b6caa3383a6078, 276},
		{3, 0x679ac8d878b06565, 616},
		{4, 0xacbf9052699d8ffe, 582},
		{5, 0x14b2a8ab3a0dc3bb, 652},
		{6, 0x83f1e542df1d3186, 1158},
		{7, 0x08d695b155cfb563, 814},
		{8, 0xd2c67cfd421e9982, 88},
		{9, 0xf819ce6d11a79692, 276},
		{10, 0x2d7b56afde19780d, 620},
		{11, 0xa83a70110a9fb690, 255},
		{12, 0x6e701c67a53c555a, 318},
		{13, 0x44fa4584620bbb4e, 708},
		{14, 0x1a0364199df00368, 317},
		{15, 0x83c18f88a912b4b5, 1562},
		{16, 0x5da9df103df9199d, 2329},
		{17, 0x7af4c425a94e12e4, 523},
		{18, 0xe52d9c1d91fa9a08, 435},
		{19, 0x152450a5e3d295b3, 182},
		{20, 0xecd5f554f6812fea, 246},
		{21, 0x90a2e430f960dc2c, 365},
		{22, 0x785c37938b4cd94e, 204},
		{23, 0x3ccdb88ac8e023cd, 76},
		{24, 0x7235ea288b44f16b, 430},
		{25, 0x8fe5183f57b67da0, 496},
	}
	for _, pin := range pins {
		sc := Generate(pin.seed)
		r, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", pin.seed, err)
		}
		if !r.Passed() {
			t.Errorf("seed %d (%s): violations=%d failures=%v", pin.seed, sc, r.Violations, r.Failures)
		}
		if r.Fingerprint != pin.fingerprint || r.Delivered != pin.delivered {
			t.Errorf("seed %d (%s): fingerprint=%016x delivered=%d, pinned %016x %d",
				pin.seed, sc, r.Fingerprint, r.Delivered, pin.fingerprint, pin.delivered)
		}
	}
}
