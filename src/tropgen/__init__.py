"""tropgen: exact tropical memberships, Groebner cones and generic
tropical varieties of graded polynomial ideals over the rationals."""

__version__ = "0.1.0"
