"""Fermionic operator substrate: ladder operators and Majorana algebra."""

from .majorana import MajoranaOperator, majorana_form, normal_order_majorana_product
from .operators import Action, FermionOperator

__all__ = [
    "FermionOperator",
    "MajoranaOperator",
    "Action",
    "majorana_form",
    "normal_order_majorana_product",
]
