"""Reference implementations the production kernels are tested against.

One module per layer - :mod:`.geometry`, :mod:`.raster`, :mod:`.index` -
each public function registered once, with its production twin, in
``test_twins.py``'s ``TWINS`` table.  :mod:`.mutants` builds named source
mutants of production modules for the tests that must tell them apart.
"""
