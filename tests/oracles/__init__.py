"""Independent constructions that the tests check the library against.

Geometry of the synthetic families (`geometry`), exact rational linear
programs (`exactlp`), the nerve form of the threshold complexes
(`dowker`) and Betti numbers by elimination (`persistence`).  No module
of `qcsense` imports them.
"""
