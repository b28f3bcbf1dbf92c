# Convenience targets for the DAE+DVFS reproduction.

PYTHON ?= python

.PHONY: install test bench bench-verbose examples clean results

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-verbose:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/vww_deployment.py
	$(PYTHON) examples/qos_sweep.py vww
	$(PYTHON) examples/custom_model.py
	$(PYTHON) examples/battery_lifetime.py
	$(PYTHON) examples/measured_profiling.py

results:
	cat benchmarks/results/*.txt

# benchmarks/results/ holds the tracked E1-E17 tables: never delete it.
clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
