package sushi

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// experimentPins holds the sha256 of Experiment(id)'s String() text for
// every registry id but table6 and fidelity (their cells hold wall-clock
// times), on the default workload and, where the id takes one, on the
// other family too. A refactor that moves a reproduced number fails
// here.
var experimentPins = []struct{ id, want string }{
	{"fig2", "63edd9f7e32f511f12f39a673a6e200700fce203312d4fae1a0e3b08cc7ffc9c"},
	{"fig2:mobilenetv3", "8e6954597cd1d44770f84b60203ba5bd41f627498f7cc650461c2351e40c972e"},
	{"fig3", "8520922e5ed6e6baf7cd0c07e3369901aea393544b3654ddc6838aac38c967f3"},
	{"fig9", "a16ad3b07b8436924568f9814c30bbde5c0c74bef0b1c2105748c4c3eb313890"},
	{"fig9:mobilenetv3", "0c85ae85e5705e4fbe2e9f468ad8780f3194085ec5fec842c6da9440bbe33431"},
	{"fig10", "78ab8dd1f9324f9b2b41e354b900b03976ffe125d63c4f6c6f3ce0c8a87ce8cb"},
	{"fig10:mobilenetv3", "47fbe5cbd6419414b6f4159076fb4af01c9687134356537a1addd47db0ca1109"},
	{"fig11", "ab32e18ed22d4c37424a7bc057645daf423d82798c1c8daaca3819073557506c"},
	{"fig11:mobilenetv3", "42f3177ca7436c371dafa69b293d78660d12d781dc3364ff3d32c0e6d5b5ce4e"},
	{"fig12", "19f958027a940b956796c9d3143ff8336d2252284ae5a4d983e0ffdac9b8b361"},
	{"fig12:mobilenetv3", "507883b06027bac34f08b75b32d1d443da7e06319374b7721963e6fcc406bb67"},
	{"fig13a", "7d124b1a8e961bca5bc6b70037d8e5064e7f54d11452332293e5a4f85af34adc"},
	{"fig13b", "979985bb27333612d9a0a349daa4488d802a88d1c90030db4815f208060b75f4"},
	{"fig13b:mobilenetv3", "24e48a9dc58773ff9f8fc206dd7b7fec33d929dafa13cec4266828fda8a45c28"},
	{"fig14", "1378773d5c472f3728335aa7b98c689368f6c4cf8e8cee353c300c4bff6d72be"},
	{"fig15", "7ee9165576012792d965a38a2845716f274a0d4c508e415771569747a6dd2cad"},
	{"fig15:mobilenetv3", "9a1df53a22cca9774dc5ac3567c832246576724d629c9ec877b9ac3479ef2e4d"},
	{"fig15acc", "5c72229c78a6d3c09169d78b51442eb2b9b4a1b4c821eff53728d5fe0e1d1cbd"},
	{"fig15acc:mobilenetv3", "46e41bb96315ed662dacdc6f75586b96d1635851dd91536c3d6a89419b24fed1"},
	{"fig16", "3b6150d25d70d9cd2b8cb13a95412f4421bcf587834389a81b768956b189942f"},
	{"fig16:mobilenetv3", "ee690b0462fbd596c392d2a4157c3a77a7ba7b391cf4995b530ae66a425011f5"},
	{"fig17", "11d80026943e943d7aa1be0b8aa8ec209ac9764c30891f1b14c1459bb0cc755b"},
	{"fig17:mobilenetv3", "5f6481eab675bb2d5257e142d33c5990ea43b95b222b4615fec829eea519a3da"},
	{"fig18", "5f6481eab675bb2d5257e142d33c5990ea43b95b222b4615fec829eea519a3da"},
	{"table1", "64b47b4def8f3a1c4dc504f7aa16b06dd615eaca5f4fa03140949a509110843c"},
	{"table2", "53cff48daae7b972e1278a8a3b5265ab0755db4895a438d69ce7af866f38527d"},
	{"table3", "c29ff1865a4605681d3b03f046b52411cf6b86021b9aee140a4987c6473df5a3"},
	{"table4", "55ddbc3524174a5ad6b1b99ce875e428494156ceab1ef94090aaf55b90d3f170"},
	{"table5", "0985d813de828271f7dc8e33eca24fda5ade04660aa91ea893d7e07886d6d803"},
	{"table5:mobilenetv3", "ddb445afb5759ef875d3903bf4e24378902dedd1d6ea9f9f3e8fc29302e31a72"},
	{"hitratio", "96e7e7a7d6ede1c73d6e05e014c340f3bb20a707f8c2ca1811c84dd565cbb0c0"},
	{"ablation-avg", "a5bad14566d2f40c3966bb910f34ab863c0adc01cab3baf95951e87a0f95cf12"},
	{"ablation-avg:mobilenetv3", "5327853985fbd30f98089c96b0a29ec363d241c9510c6fd76c823ac694526900"},
	{"overload", "3b988bb3abbe1be9f018b5ed626d3ed9fcc814e9c5f48b11dcb84c2f704b03ac"},
	{"overload:mobilenetv3", "7d92d9a053ebb840244e342e575092b9afea1a265f161ed4cf75078fc0828f49"},
}

// TestExperimentTextPinned regenerates every pinned experiment and
// compares its text digest. TestEveryListedExperimentRuns fails when a
// registry id has no pin.
func TestExperimentTextPinned(t *testing.T) {
	for _, p := range experimentPins {
		t.Run(p.id, func(t *testing.T) {
			res, err := Experiment(p.id)
			if err != nil {
				t.Fatal(err)
			}
			text := res.String()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != p.want {
				t.Errorf("experiment text moved: sha256 %s, pinned %s\n%s", got, p.want, text)
			}
		})
	}
}
