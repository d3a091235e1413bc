from charsum import checks
from charsum.verify import _family_worker


def test_jacobi_sweep_checks_every_beta_above_conv_cap():
    # F_4099 is a cubic prime field above 4096: the all-beta A(beta)
    # identity counts q - 1 assertions there too
    q = 4099
    outcome = _family_worker((checks.jacobi, q, 1, 3))
    assert outcome["failures"] == []
    # norm, J + conj(J), Gauss quotient, |G|^2, two spot A(beta), all beta
    assert outcome["assertions"] == 6 + (q - 1)
