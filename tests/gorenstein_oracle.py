"""The two-colon Gorenstein test, kept as an oracle for the length
criterion that `weakeq.weak_classes` reads off HNF diagonals."""

from gekeler.ideals import FracIdeal


def is_gorenstein(s_order):
    """Is the overorder S of the monogenic R Gorenstein?

    R^t = f'(pi)^{-1} R gives S^t = f'(pi)^{-1} (R:S), so S^t is an
    invertible S-ideal iff (S:J)J = S for J = (R:S); the scalar cancels.
    """
    s = s_order.ideal
    j = FracIdeal.unit_ideal(s.ctx).colon(s)
    return s.colon(j) * j == s
