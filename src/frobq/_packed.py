"""The packed kernel of the product DSL (Kronecker substitution).

`Packed` holds the coefficients that one run of `qseries.product_from_spec`
works on as one int, so that a binomial pass is a shift and an add.  Only
`qseries._expand_run` uses it, and it imports this module the first time it
packs a run, so a process that expands only small products never compiles it.
"""

# A step at most doubles a digit, so `Packed` checks the range of its digits
# every HEAD steps, against a bound HEAD bits below the top of a slot.
HEAD = 6


class Packed:
    """The coefficients of q^0, q^g, q^2g, ... of a list of `len(self)`
    coefficients, held as one int (Kronecker substitution).

    With n slots of B = 8 * nbytes bits, y = sum_i d_i * 2^(B*i) mod 2^(B*n),
    where d_i is the coefficient of q^(g*i): x = q^g becomes 2^B.  That map
    is a ring homomorphism from Z[x]/(x^n) to the integers mod 2^(B*n), one
    to one on the digits with |d_i| < 2^(B-1) (balanced digits), so a
    binomial pass is a shift and an add of y, exact while every digit stays
    in that range.  A step at most doubles a digit.  So every HEAD steps
    `_step` checks that every digit lies below 2^(B-1-HEAD): then the next
    HEAD steps cannot leave the range.  A digit above that bound makes it
    move the digits, which are still in range and so unique, into wider
    slots, which leaves them below that bound again, so the count restarts.

    In bytes, slot i holds d_i + 2^(B-1) as an unsigned little-endian field,
    which is how the digits are packed, unpacked and moved.
    """

    __slots__ = ("length", "stride", "n", "nbytes", "y", "top", "mask", "room", "head", "steps")

    def __init__(self, coeffs: list, stride: int):
        # the narrowest slots whose digits meet the range check's bound
        nbytes = (max(max(coeffs), -min(coeffs)).bit_length() + HEAD + 8) // 8
        half = 1 << (8 * nbytes - 1)
        self.length, self.stride, self.steps = len(coeffs), stride, 0
        self._load(b"".join([(c + half).to_bytes(nbytes, "little") for c in coeffs[::stride]]),
                   nbytes, nbytes)

    def __len__(self):
        return self.length

    @property
    def bits(self) -> int:
        return 8 * self.nbytes

    def _load(self, data, nbytes: int, offset_bytes: int) -> None:
        # the slots of `data`, each holding its digit plus 2^(8*offset_bytes-1)
        bits = 8 * nbytes
        n = len(data) // nbytes
        self.n, self.nbytes = n, nbytes
        self.top = 1 << bits * n
        self.mask = self.top - 1
        ones = int.from_bytes((b"\1" + bytes(nbytes - 1)) * n, "little")
        # every |digit| < 2^(B-1-HEAD) exactly when y plus that bound in every
        # slot (`room`) sets none of each slot's top HEAD bits (`head`): the
        # lowest digit out of range sets one of its own before it can carry
        self.room = ones << (bits - 1 - HEAD)
        self.head = (ones << (bits - HEAD)) * ((1 << HEAD) - 1)
        self.y = (int.from_bytes(data, "little") - (ones << (8 * offset_bytes - 1))) & self.mask

    def _data(self) -> bytes:
        # y plus 2^(B-1) in every slot
        return ((self.y + (self.room << HEAD)) & self.mask).to_bytes(self.n * self.nbytes, "little")

    def relayout(self, stride: int, nbytes: int = 0) -> None:
        """Move the digits to `stride`, a divisor of the current stride, in
        slots of `nbytes` >= the current nbytes (the current nbytes by
        default), byte column by byte column."""
        old, nb, spread = self._data(), self.nbytes, self.stride // stride
        nbytes = nbytes or nb
        n = (self.length - 1) // stride + 1
        # a new slot holds zero plus the old offset until a digit moves in
        data = bytearray((bytes(nb - 1) + b"\x80" + bytes(nbytes - nb)) * n)
        step = spread * nbytes
        for j in range(nb):
            data[j:j + step * self.n:step] = old[j::nb]
        self.stride = stride
        self._load(data, nbytes, nb)

    def unpack(self) -> list:
        nbytes, half, data = self.nbytes, 1 << (self.bits - 1), self._data()
        coeffs = [0] * self.length
        coeffs[::self.stride] = [int.from_bytes(data[i:i + nbytes], "little") - half
                                 for i in range(0, len(data), nbytes)]
        return coeffs

    def apply(self, sign: int, s: int, times: int) -> int:
        """y *= (1 + sign*x^s)^times, dividing when times < 0, for 1 <= s < n,
        up to the end of the first pass that widens the slots; returns the
        passes left, signed as `times` (0 when all ran), so that the caller
        can weigh the wider slots before it runs them.

        1/(1 - x^s) is (1 + x^s)(1 + x^2s)(1 + x^4s)... up to x^n, and
        1/(1 + x^s) = (1 - x^s)/(1 - x^2s), as in `qseries._apply_binomial`."""
        nbytes = self.nbytes
        while times > 0:
            self._step(sign, s)
            times -= 1
            if self.nbytes != nbytes:
                return times
        while times < 0:
            t = s
            if sign > 0:
                self._step(-1, s)
                t = 2 * s
            while t < self.n:
                self._step(1, t)
                t *= 2
            times += 1
            if self.nbytes != nbytes:
                return times
        return 0

    def _step(self, sign: int, s: int) -> None:
        if self.steps == HEAD:
            if (self.y + self.room) & self.head:
                # at least 8 more bits: every |digit| < 2^(B-1) <= 2^(B'-1-HEAD)
                self.relayout(self.stride, self.nbytes + 1 + self.nbytes // 4)
            self.steps = 0
        y, mask = self.y, self.mask
        # both terms lie in [0, 2^(B*n)); the subtraction starts from
        # y + 2^(B*n), since masking a negative int, in two's complement,
        # costs about three additions, and masking a positive one a fifth
        shifted = (y << s * 8 * self.nbytes) & mask
        self.y = (y + shifted if sign > 0 else (y | self.top) - shifted) & mask
        self.steps += 1
