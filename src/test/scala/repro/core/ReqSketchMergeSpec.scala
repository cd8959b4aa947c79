package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Harness, Workloads}

/** Full mergeability (Algorithm 4 / Appendix C): arbitrary merge trees must
  * preserve the accuracy and space of single-stream processing.
  */
class ReqSketchMergeSpec extends AnyFunSuite {

  private def sketchOf(data: Array[Double], eps: Double = 0.05, seed: Long):
      ReqSketch = {
    val s = ReqSketch(eps, 0.1, Practical, seed = seed)
    s.updateAll(data)
    s
  }

  test("merge of two halves counts all items") {
    val data = Workloads.uniform(60000, 1)
    val (l, r) = data.splitAt(30000)
    val m = sketchOf(l, seed = 2).merge(sketchOf(r, seed = 3))
    assert(m.n == 60000)
  }

  test("merge with an empty sketch is identity on n and accuracy") {
    val data = Workloads.uniform(40000, 5)
    val s = sketchOf(data, seed = 7)
    val before = Harness.errProfile(s.rank, data).maxRel
    val m = s.merge(ReqSketch(0.05, 0.1, Practical, seed = 8))
    assert(m.n == 40000)
    assert(Harness.errProfile(m.rank, data).maxRel == before)
  }

  test("merging mismatched parameters is rejected") {
    val a = ReqSketch(0.05, 0.1, Practical, seed = 1)
    intercept[IllegalArgumentException](a.merge(ReqSketch(0.1, 0.1, Practical, seed = 2)))
    val b = ReqSketch(0.05, 0.1, Practical, seed = 1)
    intercept[IllegalArgumentException](b.merge(ReqSketch(0.05, 0.2, Practical, seed = 2)))
    val c = ReqSketch(0.05, 0.1, Theory, seed = 1)
    intercept[IllegalArgumentException](c.merge(ReqSketch(0.05, 0.1, Practical, seed = 2)))
  }

  test("the mismatch message names both sides' eps, delta and profile") {
    val e = intercept[IllegalArgumentException](
      ReqSketch(0.05, 0.1, Practical, seed = 1).merge(ReqSketch(0.1, 0.2, FixedK(12), seed = 2)))
    assert(e.getMessage.contains("(eps=0.05, delta=0.1, Practical)"), e.getMessage)
    assert(e.getMessage.contains("(eps=0.1, delta=0.2, FixedK(12))"), e.getMessage)
  }

  test("merge result bound covers the combined n") {
    val a = sketchOf(Workloads.uniform(100000, 9), seed = 10)
    val b = sketchOf(Workloads.uniform(100000, 11), seed = 12)
    val m = a.merge(b)
    assert(m.nBound >= m.n && m.n == 200000)
  }

  test("level states are ORed into the target") {
    // Build two sketches big enough that level 0 has nonzero state.
    val a = sketchOf(Workloads.uniform(50000, 13), seed = 14)
    val b = sketchOf(Workloads.uniform(50000, 15), seed = 16)
    val (sa, sb) = (a.levelState(0), b.levelState(0))
    assume(sa != 0 && sb != 0)
    val m = a.merge(b)
    // post-merge state must contain the OR of both (possibly advanced by
    // compactions performed during the merge itself)
    assert((m.levelState(0) & (sa | sb)) != 0)
  }

  for (split <- Seq(2, 4, 16, 64)) {
    test(s"left-fold merge of $split chunks keeps relative error <= 1.5*eps") {
      val eps = 0.05
      val data = Workloads.uniform(120000, split)
      val chunks = data.grouped(data.length / split).toSeq
      val merged = chunks.zipWithIndex.map { case (c, i) =>
        sketchOf(c, eps, seed = 100 + i)
      }.reduce((x, y) => x.merge(y))
      val p = Harness.errProfile(merged.rank, data)
      assert(p.maxRel <= 1.5 * eps, f"split=$split maxRel=${p.maxRel}%.4f")
      assert(merged.n == data.length)
    }
  }

  for (seed <- 1 to 6) {
    test(s"random pairwise merge tree keeps relative error <= 1.5*eps (seed=$seed)") {
      val eps = 0.05
      val data = Workloads.uniform(100000, 200 + seed)
      val rng = new java.util.Random(seed)
      val pool = data.grouped(4000).zipWithIndex.map { case (c, i) =>
        sketchOf(c, eps, seed = 300 + 31 * seed + i)
      }.toBuffer
      while (pool.size > 1) {
        val a = pool.remove(rng.nextInt(pool.size))
        val b = pool.remove(rng.nextInt(pool.size))
        pool += a.merge(b)
      }
      val p = Harness.errProfile(pool.head.rank, data)
      assert(p.maxRel <= 1.5 * eps, f"maxRel=${p.maxRel}%.4f")
    }
  }

  test("merged space is comparable to streaming space (within 2x)") {
    val eps = 0.05
    val data = Workloads.uniform(200000, 17)
    val streaming = sketchOf(data, eps, seed = 18)
    val merged = data.grouped(12500).zipWithIndex.map { case (c, i) =>
      sketchOf(c, eps, seed = 400 + i)
    }.reduce((a, b) => a.merge(b))
    assert(merged.itemsStored <= 2 * streaming.itemsStored,
      s"merged=${merged.itemsStored} streaming=${streaming.itemsStored}")
  }

  test("merge keeps total weight within 2% of n") {
    val data = Workloads.uniform(150000, 19)
    val merged = data.grouped(10000).zipWithIndex.map { case (c, i) =>
      sketchOf(c, seed = 500 + i)
    }.reduce((a, b) => a.merge(b))
    assert(math.abs(merged.totalWeight - merged.n) <= 0.02 * merged.n)
  }

  test("skewed merge: tiny sketch into huge sketch") {
    val big = sketchOf(Workloads.uniform(250000, 21), seed = 22)
    val tiny = sketchOf(Array(0.5, 0.25), seed = 23)
    val m = big.merge(tiny)
    assert(m.n == 250002)
    val data = Workloads.uniform(250000, 21) ++ Array(0.5, 0.25)
    assert(Harness.errProfile(m.rank, data).maxRel <= 0.1)
  }

  test("merge order (a.merge(b) vs b.merge(a)) both summarize everything") {
    val da = Workloads.uniform(50000, 24)
    val db = Workloads.uniform(50000, 25)
    val m1 = sketchOf(da, seed = 26).merge(sketchOf(db, seed = 27))
    val m2 = sketchOf(db, seed = 27).merge(sketchOf(da, seed = 26))
    assert(m1.n == m2.n)
    val all = da ++ db
    assert(Harness.errProfile(m1.rank, all).maxRel <= 0.075)
    assert(Harness.errProfile(m2.rank, all).maxRel <= 0.075)
  }

  test("merging sketches over disjoint value ranges keeps tail accuracy") {
    val eps = 0.05
    val lo = Array.tabulate(50000)(i => i.toDouble / 50000)          // [0,1)
    val hi = Array.tabulate(50000)(i => 10.0 + i.toDouble / 50000)   // [10,11)
    val m = sketchOf(lo, eps, seed = 28).merge(sketchOf(hi, eps, seed = 29))
    val p = Harness.errProfile(m.rank, lo ++ hi)
    assert(p.maxRel <= 1.5 * eps, f"maxRel=${p.maxRel}%.4f")
  }

  test("repeated self-accumulation (streaming via unit merges) stays accurate") {
    // insert == merge with a singleton summary (remark below Algorithm 4)
    val eps = 0.1
    val data = Workloads.uniform(20000, 30)
    var acc = ReqSketch(eps, 0.1, Practical, seed = 31)
    data.grouped(100).zipWithIndex.foreach { case (c, i) =>
      acc = acc.merge(sketchOf(c, eps, seed = 600 + i))
    }
    assert(acc.n == 20000)
    assert(Harness.errProfile(acc.rank, data).maxRel <= 1.5 * eps)
  }

  test("merging a sketch with itself is rejected and leaves it unchanged") {
    val s = sketchOf(Workloads.uniform(20000, 32), seed = 33)
    val (n, cs) = (s.n, s.coreset.toSeq)
    intercept[IllegalArgumentException](s.merge(s))
    assert(s.n == n && s.coreset.toSeq == cs)
  }
}
