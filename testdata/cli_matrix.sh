#!/usr/bin/env bash
# cli_matrix.sh BINDIR — print the CLI scenario matrix to stdout.
#
# Runs crnsim on every protocol × each channel model it accepts × every
# arrival kind (plus one adversary run and one -aloha-p run), and
# crnemu -transport sim -json on every arrival kind, each under a
# "## <command>" header.  testdata/cli_matrix.golden is this script's
# output; CI regenerates it and cmp's the two, so any change to how the
# CLIs map flags onto engine inputs shows up as a diff.
#
#   go build -o bin/ ./cmd/crnsim ./cmd/crnemu
#   bash testdata/cli_matrix.sh bin > /tmp/cli_matrix.txt
#   cmp testdata/cli_matrix.golden /tmp/cli_matrix.txt
set -euo pipefail
bin=${1:?usage: cli_matrix.sh BINDIR}

run() {
	echo "## $*"
	"$bin/$@"
}

scenario=(-kappa 8 -n 500 -horizon 2000 -rate 0.1 -window 256)
arrivals=(batch bernoulli poisson even burst)
for proto in dba beb aloha genie mw robust unbounded; do
	models=(coded classical:none classical:binary classical:ternary capture)
	if [ "$proto" = dba ]; then
		models=(coded)
	fi
	for model in "${models[@]}"; do
		for arr in "${arrivals[@]}"; do
			run crnsim -plot=false "${scenario[@]}" -protocol "$proto" -model "$model" -arrival "$arr"
		done
	done
done
run crnsim -plot=false "${scenario[@]}" -protocol dba -arrival bernoulli -rate 0.3 -adversary reactive:4/32
run crnsim -plot=false "${scenario[@]}" -protocol aloha -model classical:ternary -arrival batch -aloha-p 0.01

for arr in "${arrivals[@]}"; do
	run crnemu -transport sim -json -protocol dba -stations 3 "${scenario[@]}" -arrival "$arr"
done
