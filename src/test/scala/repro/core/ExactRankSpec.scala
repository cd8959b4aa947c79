package repro.core

import org.apache.spark.sql.functions.{col, sum, when}
import repro.{Oracle, SparkSpec, SynthData}
import repro.exp.Workloads

/** Ground-truth validation: the exact-rank computation the benchmarks score
  * against is itself checked — locally against brute force, in Spark against
  * the local path (`SparkExactRank`), and via the DuckDB Oracle against an
  * independent engine.
  */
class ExactRankSpec extends SparkSpec {

  test("ranksLocal matches brute force on random data") {
    val rng = new java.util.Random(1)
    val data = Array.fill(5000)(rng.nextDouble())
    val qs = Array.fill(50)(rng.nextDouble())
    val got = ExactRank.ranksLocal(data.clone(), qs)
    val want = qs.map(q => data.count(_ <= q).toLong)
    assert(got.toSeq == want.toSeq)
  }

  test("ranksLocal counts duplicates inclusively") {
    val data = Array(1.0, 2.0, 2.0, 2.0, 3.0)
    val got = ExactRank.ranksLocal(data.clone(), Array(0.5, 2.0, 3.0, 9.0))
    assert(got.toSeq == Seq(0L, 4L, 5L, 5L))
  }

  test("ranksLocal on empty queries returns empty") {
    assert(ExactRank.ranksLocal(Array(1.0), Array.empty[Double]).isEmpty)
  }

  test("Spark ranks match ranksLocal on uniform keys") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 1000, seed = 2)
    val local = df.select(col("k").cast("double")).collect().map(_.getDouble(0))
    val qs = Array(1.0, 10.0, 100.0, 500.0, 1000.0)
    val got = SparkExactRank.ranks(df, "k", qs)
    val want = ExactRank.ranksLocal(local, qs)
    assert(got.toSeq == want.toSeq)
  }

  test("Spark ranks match ranksLocal on lineitem prices (SF=0.01)") {
    val df = SynthData.lineitem(spark, sf = 0.005)
    val local = df.select(col("l_extendedprice").cast("double"))
      .collect().map(_.getDouble(0))
    val sorted = local.clone(); java.util.Arrays.sort(sorted)
    val qs = Array(sorted(10), sorted(sorted.length / 2), sorted(sorted.length - 1))
    val got = SparkExactRank.ranks(df, "l_extendedprice", qs)
    val want = ExactRank.ranksLocal(local, qs)
    assert(got.toSeq == want.toSeq)
  }

  test("total counts non-null rows") {
    val df = SynthData.orders(spark, sf = 0.005)
    assert(SparkExactRank.total(df, "o_totalprice") == df.count())
  }

  test("Oracle: Spark exact-rank aggregation matches DuckDB") {
    val df = SynthData.uniformKeys(spark, rows = 5000, nKeys = 100, seed = 3)
      .select(col("k").cast("double").as("k"))
    val qs = Seq(1.0, 25.0, 50.0, 100.0)
    val sparkDf = df.agg(
      qs.zipWithIndex.map { case (q, i) =>
        sum(when(col("k") <= q, 1L).otherwise(0L)).alias(s"r$i")
      }.head,
      qs.zipWithIndex.map { case (q, i) =>
        sum(when(col("k") <= q, 1L).otherwise(0L)).alias(s"r$i")
      }.tail: _*
    )
    val sql = qs.zipWithIndex.map { case (q, i) =>
      s"sum(CASE WHEN CAST(k AS DOUBLE) <= $q THEN 1 ELSE 0 END) AS r$i"
    }.mkString("SELECT ", ", ", " FROM t")
    Oracle.assertEquivalent(sparkDf, sql, "t" -> df)
  }

  test("Oracle: per-group counts on lineitem match DuckDB (harness query shape)") {
    val df = SynthData.lineitem(spark, sf = 0.002)
      .select(col("l_returnflag"), col("l_quantity").cast("double").as("q"))
    val sparkDf = df.groupBy("l_returnflag")
      .agg(sum(when(col("q") <= 25.0, 1L).otherwise(0L)).alias("low"),
           sum(when(col("q") <= 50.0, 1L).otherwise(0L)).alias("hi"))
    val sql =
      """SELECT l_returnflag,
         sum(CASE WHEN CAST(q AS DOUBLE) <= 25.0 THEN 1 ELSE 0 END) AS low,
         sum(CASE WHEN CAST(q AS DOUBLE) <= 50.0 THEN 1 ELSE 0 END) AS hi
         FROM li GROUP BY l_returnflag"""
    Oracle.assertEquivalent(sparkDf, sql, "li" -> df)
  }

  test("Oracle: zipf workload pull matches DuckDB count by key threshold") {
    val df = SynthData.zipfKeys(spark, rows = 4000, nKeys = 50, seed = 5)
      .select(col("k").cast("double").as("k"))
    val sparkDf = df.agg(
      sum(when(col("k") <= 1.0, 1L).otherwise(0L)).alias("a"),
      sum(when(col("k") <= 5.0, 1L).otherwise(0L)).alias("b"))
    val sql = """SELECT sum(CASE WHEN CAST(k AS DOUBLE) <= 1.0 THEN 1 ELSE 0 END) AS a,
                        sum(CASE WHEN CAST(k AS DOUBLE) <= 5.0 THEN 1 ELSE 0 END) AS b FROM t"""
    Oracle.assertEquivalent(sparkDf, sql, "t" -> df)
  }

  test("rankGrid covers 1 and n with geometric spacing") {
    val g = Workloads.rankGrid(1000)
    assert(g.head == 1 && g.last == 1000)
    assert(g.dropRight(1).zip(g.drop(1).dropRight(1)).forall { case (a, b) => b == 2 * a })
  }
}
