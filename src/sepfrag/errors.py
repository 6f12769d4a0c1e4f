"""Exception types shared across the package."""

import functools


class SepfragError(Exception):
    pass


# --- parsing and well-formedness ---

class ParseError(SepfragError):
    def __init__(self, position, expected, message=None):
        self.position = position
        self.expected = expected
        super().__init__(message or f"parse error at {position}: expected {expected}")


class ArityMismatch(SepfragError):
    def __init__(self, symbol, seen, declared):
        self.symbol = symbol
        self.seen = seen
        self.declared = declared
        super().__init__(f"predicate {symbol!r} used with arity {seen}, declared {declared}")


class UnexpandedCounting(SepfragError):
    pass


class NotASentence(SepfragError):
    pass


class NotNNF(SepfragError):
    pass


class TooDeep(SepfragError):
    pass


def depth_guarded(fn):
    """fn, with a RecursionError from its recursive walks raised as TooDeep."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise TooDeep(f"{fn.__name__}: the formula is nested too deeply") from None

    return guarded


# --- semantics ---

class UnassignedVariable(SepfragError):
    pass


class SignatureMismatch(SepfragError):
    pass


class ConstantOutsideSubset(SepfragError):
    pass


# --- resource limits ---

class BudgetExceeded(SepfragError):
    def __init__(self, message, needed=None, limit=None):
        self.needed = needed
        self.limit = limit
        super().__init__(message)


class ClauseBudgetExceeded(BudgetExceeded):
    pass


class SelectionBudgetExceeded(BudgetExceeded):
    pass


class CapExceeded(BudgetExceeded):
    pass


# --- fragment analysis ---

class OverlappingSets(SepfragError):
    pass


class NotSF(SepfragError):
    pass


# --- translation ---

class EmptyIndexSet(SepfragError):
    pass


class BoundVariableInResidue(SepfragError):
    pass


# --- decision engine ---

class HasUniversals(SepfragError):
    pass


class NotGround(SepfragError):
    pass


class NotHorn(SepfragError):
    pass


class NotKrom(SepfragError):
    pass


# --- generators ---

class BadParams(SepfragError):
    pass


class WordTooLong(SepfragError):
    pass


class EmptyDominoComponent(SepfragError):
    pass


class InvalidTiling(SepfragError):
    pass


class SizeMismatch(SepfragError):
    pass


class InfeasibleN(SepfragError):
    pass
