package bench

import "testing"

// TestBuildIsReproducible: two builds of one app print the same IR for every
// function, SSA temporary numbers included, in both variants. A pass that
// inserts instructions in map order numbers them differently from one build
// to the next; fault messages and /v1/compile listings would then differ
// between runs and between daed nodes for one key.
func TestBuildIsReproducible(t *testing.T) {
	listing := func(b *Built) map[string]string {
		out := map[string]string{}
		for _, f := range b.W.Module.Funcs {
			out["module "+f.Name] = f.String()
		}
		for task, f := range b.W.Access {
			out["access "+task] = f.String()
		}
		for task, r := range b.Results {
			if r.AccessFull != nil {
				out["access-full "+task] = r.AccessFull.String()
			}
		}
		return out
	}
	for _, app := range Apps() {
		for _, v := range []Variant{Auto, Manual} {
			var first map[string]string
			for i := 0; i < 2; i++ {
				b, err := app.Build(v)
				if err != nil {
					t.Fatalf("%s variant %d: %v", app.Name, v, err)
				}
				got := listing(b)
				if first == nil {
					first = got
					continue
				}
				if len(got) != len(first) {
					t.Errorf("%s variant %d: %d functions, then %d", app.Name, v, len(first), len(got))
				}
				for name, text := range first {
					if got[name] != text {
						t.Errorf("%s variant %d: %s printed differently by a second build:\n%s\n---\n%s", app.Name, v, name, text, got[name])
					}
				}
			}
		}
	}
}
