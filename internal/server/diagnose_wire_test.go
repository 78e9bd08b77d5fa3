package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/harness"
)

// The diagnose response, bottlenecks and all, is written by its member
// table in pcd and read by the strict decoder in the client, byte for
// byte what encoding/json writes and reads.

// checkDiagnoseResponse holds the codec's indented and compact encodings
// of resp to encoding/json's, and requires the strict decoder to read
// both back as encoding/json does. A nil array is written null, which
// the strict decoder leaves to encoding/json (pcd always sends an
// array): then UnmarshalCanonical must still read what json.Unmarshal
// does.
func checkDiagnoseResponse(t *testing.T, resp *DiagnoseResponse) {
	t.Helper()
	check := func(what string, data []byte) {
		t.Helper()
		if resp.Bottlenecks != nil {
			checkStrict[DiagnoseResponse](t, what, data)
			return
		}
		var got, want DiagnoseResponse
		if err := UnmarshalCanonical(data, &got); err != nil || json.Unmarshal(data, &want) != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: UnmarshalCanonical (%v) differs from json.Unmarshal", what, err)
		}
	}
	got, err := MarshalCanonical(resp)
	if want := stdCanonical(t, resp); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalCanonical differs from json.MarshalIndent (%v):\ngot  %.600q\nwant %.600q", err, got, want)
	}
	check("diagnose response", got)
	compact, err := MarshalCompact(resp)
	want, werr := json.Marshal(resp)
	if err != nil || werr != nil || !bytes.Equal(compact, want) {
		t.Fatalf("MarshalCompact differs from json.Marshal (%v, %v):\ngot  %.600q\nwant %.600q", err, werr, compact, want)
	}
	check("diagnose response, compact", compact)
}

// wireDiagnoseResponse draws a response from testing/quick, half its
// strings and floats redrawn from the escape classes and float-rule
// boundaries, and some members zero, for omitempty.
func wireDiagnoseResponse(r *rand.Rand) *DiagnoseResponse {
	v, ok := quick.Value(reflect.TypeOf(DiagnoseResponse{}), r)
	if !ok {
		panic("testing/quick cannot generate a DiagnoseResponse")
	}
	resp := v.Interface().(DiagnoseResponse)
	str := func(s *string) {
		switch r.Intn(3) {
		case 0:
			*s = wireStrings[r.Intn(len(wireStrings))] + wireStrings[r.Intn(len(wireStrings))]
		case 1:
			*s = ""
		}
	}
	float := func(f *float64) {
		if r.Intn(2) == 0 {
			*f = wireFloats[r.Intn(len(wireFloats))]
		}
	}
	for _, s := range []*string{&resp.App, &resp.Version, &resp.RunID, &resp.Saved} {
		str(s)
	}
	float(&resp.EndTime)
	for i := range resp.Bottlenecks {
		b := &resp.Bottlenecks[i]
		str(&b.Hyp)
		str(&b.Focus)
		float(&b.Value)
		float(&b.FoundAt)
	}
	if r.Intn(3) == 0 {
		resp.SkippedDirectives, resp.PairsTested = 0, 0
	}
	if r.Intn(4) == 0 {
		resp.Bottlenecks = nil
	}
	return &resp
}

func TestDiagnoseResponseShapeMatchesEncodingJSON(t *testing.T) {
	t.Run("sessions", func(t *testing.T) {
		for _, av := range [][2]string{{"poisson", "B"}, {"mw", ""}, {"pipeline", ""}} {
			a, err := app.Build(av[0], av[1], app.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := harness.RunSession(a, harness.DefaultSessionConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkDiagnoseResponse(t, &DiagnoseResponse{
				App: av[0], Version: av[1], RunID: "d-c0-000001", Quiesced: res.Quiesced, EndTime: res.EndTime,
				PairsTested: res.PairsTested, Bottlenecks: WireBottlenecks(res.Bottlenecks), Saved: av[0] + ":d-c0-000001",
			})
		}
	})
	t.Run("edges", func(t *testing.T) {
		checkDiagnoseResponse(t, &DiagnoseResponse{})
		checkDiagnoseResponse(t, &DiagnoseResponse{Bottlenecks: []DiagnoseBottleneck{}})
		checkDiagnoseResponse(t, &DiagnoseResponse{EndTime: math.Copysign(0, -1), PairsTested: math.MinInt, SkippedDirectives: -1,
			Bottlenecks: []DiagnoseBottleneck{{}, {Hyp: "h", Focus: "</Code>", Value: 5e-324, FoundAt: 1e21}}})
	})
	t.Run("quick", func(t *testing.T) {
		r := rand.New(rand.NewSource(41))
		for i := 0; i < 1000; i++ {
			checkDiagnoseResponse(t, wireDiagnoseResponse(r))
		}
	})
	// A float JSON cannot spell is encoding/json's to refuse.
	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, resp := range []*DiagnoseResponse{{EndTime: f}, {Bottlenecks: []DiagnoseBottleneck{{FoundAt: f}}}} {
				_, err := MarshalCanonical(resp)
				_, want := json.MarshalIndent(resp, "", "  ")
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Errorf("MarshalCanonical(%+v) = %v, want encoding/json's %v", resp, err, want)
				}
			}
		}
	})
}
