# Development entry points. `make check` is the pre-merge gate: the full
# tier-1 test suite (which includes the compiled-vs-fixpoint differential
# matrix over every app), the throughput benches (which enforce the
# compiled-kernel-over-fixpoint, batch-kernel, time-warp,
# flight-recorder, warm-pool/compile-cache and trace-service floors and
# refresh BENCH_kernel.json / BENCH_batch.json / BENCH_replay.json /
# BENCH_flightrec.json / BENCH_warm.json / BENCH_service.json — every
# refreshed snapshot is also appended to the bench-history table in
# benchmarks/results/results.vrs), and the fault campaign (200 seeded
# faults across every kind; fails on any silent wrong-accept).

PYTHON ?= python
PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest

.PHONY: check test bench-kernel bench-batch bench-replay \
        bench-flightrec bench-warm bench-service bench \
        artifacts faults faults-batched faults-flightrec faults-warm \
        serve-smoke fuzz-frames

check: test bench-kernel bench-batch bench-replay bench-flightrec \
       bench-warm bench-service faults

faults:          ## seeded 200-fault injection campaign (containment gate)
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.harness campaign --faults 200 --seed 0

faults-batched:  ## batched campaign smoke: record legs 16 per batch kernel
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.harness campaign --faults 60 --seed 0 --batch-size 16

faults-flightrec: ## campaign with flight-recorder record legs + v3 attacks
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.harness campaign --faults 60 --seed 0 \
	  --flight-recorder

faults-warm:     ## campaign smoke over the warm pool + persistent cache
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.harness campaign --faults 60 --seed 0 \
	  --warm-pool --cache-dir .repro-cache/schedules

FUZZ_TRACE := .repro-cache/fuzz-frames/dram_dma.vtrc3

fuzz-frames:     ## container fuzz, v2 + v3 (fails on any silent accept)
	mkdir -p $(dir $(FUZZ_TRACE))
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.harness record dram_dma -o $(FUZZ_TRACE) \
	  --flight-recorder --scale 1
	for container in 2 3; do \
	  PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	    $(PYTHON) -m repro.tools fuzz --frames --container $$container \
	    --mutants 200 $(FUZZ_TRACE) || exit 1; \
	done

test:            ## tier-1: the full unit/integration suite
	$(PYTEST) -x -q

bench-kernel:    ## compiled vs fixpoint + BENCH_kernel.json (per-leg gates)
	$(PYTEST) benchmarks/test_simulator_throughput.py -q -s

bench-batch:     ## batched campaign kernel + BENCH_batch.json (>=4x gate)
	$(PYTEST) benchmarks/test_batch_kernel.py -q -s

bench-replay:    ## replay throughput + BENCH_replay.json (time-warp gate)
	$(PYTEST) benchmarks/test_replay_speed.py -q -s

bench-flightrec: ## flight recorder + BENCH_flightrec.json (ratio/overhead)
	$(PYTEST) benchmarks/test_flight_recorder.py -q -s

bench-warm:      ## compile cache + warm pool + BENCH_warm.json (floors)
	$(PYTEST) benchmarks/test_warm_pool.py -q -s

bench-service:   ## trace-service daemon + BENCH_service.json (batch/ingest)
	$(PYTEST) benchmarks/test_service.py -q -s

serve-smoke:     ## end-to-end daemon smoke: subprocess, jobs, ingest, drain
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.service.smoke

bench:           ## every benchmark (regenerates benchmarks/results/)
	$(PYTEST) benchmarks -q -s

artifacts:       ## regenerate the paper artefacts via the harness CLI
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
	  $(PYTHON) -m repro.harness all
