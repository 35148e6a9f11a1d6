"""Exact solvers, kernelizations and generators for red-blue covering with lines.

An instance is a universe of blue and red elements, a family of sets (in the
geometric case: maximal collinear subsets of a planar point set), a bound on
how many sets may be chosen, and a bound on how many red elements the chosen
sets may touch.  The question is whether some subfamily covers every blue
element within both bounds.
"""
