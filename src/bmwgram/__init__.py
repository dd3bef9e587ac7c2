"""Exact computational engine for the Birman-Murakami-Wenzl algebra:
cellular Gram matrices, determinants and the classification of singular
parameters, with a brute-force prime-field oracle."""

from .coeff import LaurentPoly, ParamSpec
from .bmw import BmwElem, generator, hecke_image, jucys_murphy, \
    phi_f
from .cellmod import CellIndex, GramMatrix, cell_dims, gram_det, \
    gram_matrix, gram_rank
from .classify import Verdict, b3_witness, classify_bmw, classify_brauer, \
    nonzero_gram_criterion, set_S, set_Z, simple_labels
from .combin import dfn, forbidden_r_values, hook_lengths, is_admissible, \
    is_e_restricted, nu_ep, partitions, std_tableaux
from .hecke import HeckeElem, x_lambda
from .oracle import OracleReport, agreement_sweep, singular_oracle

__version__ = "0.1.0"
